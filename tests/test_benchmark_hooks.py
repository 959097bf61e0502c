"""The benchmark's tracer wraps pitos attributes by name; every one of them
must still exist, or traced runs silently lose a layer's metrics."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_every_benchmark_hook_resolves():
    missing = []
    for module_name, attr_path, _ in _hooks():
        # resolved the way Tracer.install does, without replacing anything
        try:
            target = importlib.import_module(module_name)
            for part in attr_path.split("."):
                target = getattr(target, part)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr_path}")
    assert missing == []
