"""The benchmark's spans wrap svrgkit entry points by name: every
(owner, attribute) that ``perfbench/spans.py`` patches must exist where it
looks, so a renamed hook fails here by name, not as a bare KeyError inside
the benchmark's subprocess runs."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
               for name, owner, attr in spans.targets()
               if attr not in vars(owner)]
    assert not missing, f"benchmark hooks not found: {missing}"
