"""The installed dependencies meet the floors that pyproject.toml declares."""

import pathlib
import re

import numpy as np
import pytest

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _release(version: str) -> tuple:
    """The leading release numbers of a version string: "2.0.0rc1" -> (2, 0, 0)."""
    return tuple(int(part) for part in re.match(r"\d+(?:\.\d+)*", version).group(0).split("."))


def test_installed_numpy_meets_the_declared_floor():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    dependencies = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    (floor,) = [d.removeprefix("numpy>=") for d in dependencies if d.startswith("numpy")]
    assert _release(floor) >= (2, 0), "coefficient recovery calls np.vecdot, new in numpy 2.0"
    assert _release(np.__version__) >= _release(floor)
