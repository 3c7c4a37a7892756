"""The traced benchmark wraps spherecov functions by "<module>.<function>"
name; every such name must stay a callable module attribute."""

import importlib
import importlib.util
from pathlib import Path

METRICS = Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"


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
