"""The traced benchmark wraps spherecov functions by "<module>.<function>"
name; every such name must stay a callable module attribute, and the
benchmark's own self-tests must pass against this source tree."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from helpers import cli_env

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
METRICS = PERFBENCH / "metrics.py"
SELFTEST = PERFBENCH / "selftest.py"


def test_library_layers_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_metrics", METRICS)
    metrics = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metrics)
    names = [name for name in metrics.LIBRARY_LAYERS if not name.startswith("callback.")]
    assert names
    missing = []
    for name in names:
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"spherecov.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(name)
    assert missing == []


def test_benchmark_selftests_pass(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, cwd=tmp_path, env=cli_env()
    )
    assert result.returncode == 0, result.stdout + result.stderr
