import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_exists():
    # the benchmark's tracer wraps each name in LAYERS with getattr, so a name that
    # leaves its phaselab module breaks a traced run (perfbench/run.py --trace 1)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(module, name) for _, _, module, group in spans.LAYERS for name in group]
    missing = [
        f"{module}.{name}" for module, name in names
        if not callable(getattr(importlib.import_module(f"phaselab.{module}"), name, None))
    ]
    assert missing == []
    assert len(names) == 45
