"""The benchmark's tracer wraps pitos attributes by name; every one of them
must still exist, or traced runs silently lose a layer's metrics."""

import importlib
import importlib.util
from pathlib import Path

from pitos import classic, harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    return _tracing().HOOKS


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


def test_hooks_record_a_span_for_every_harness_layer(tmp_path):
    # a hook that resolves still sees nothing if the code stops calling
    # through the hooked attribute; a tiny traced run must reach each layer.
    # At n = 8 the harness scores pitos through core.planned_p_values, which
    # the hooks do not name; its betainc calls still reach the hooked
    # scipy.special attribute, in spans caused by the harness op itself
    # (pair generation's betainc spans are caused by pairs.generate_pairs).
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        harness.estimate_power("beta(0.6,0.6)", harness.ALL_TESTS, 8, replicates=4,
                               null_b=20, cache_dir=tmp_path)
        classic.classic_test("ks", [0.2, 0.5, 0.9], null_b=20, cache_dir=tmp_path)
    finally:
        tracer.uninstall()
    recorded = {span.name for span in tracer.spans.values()}
    assert tracer.missing == []
    assert {
        "harness.replicate_dataset",
        "betainc",
        "classic.batch_statistics",
        "classic.empirical_p_value",
        "classic.build_empirical_null",
    } <= recorded
    spans = tracer.spans
    assert any(span.name == "betainc" and spans[span.parent].name == "harness.estimate_power"
               for span in spans.values() if span.parent is not None)
