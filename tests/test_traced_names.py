"""The benchmark's tracer wraps kdilate functions by name; each name it
lists must still exist, or a traced round fails before it starts."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "kbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("kbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_traced_name_resolves_in_kdilate():
    targets = _targets()
    assert targets
    for module, attr, _ in targets:
        owner = importlib.import_module(f"kdilate.{module}")
        if "." in attr:  # a method, wrapped in its class's own namespace
            cls_name, meth = attr.split(".")
            owner, attr = getattr(owner, cls_name), meth
            assert attr in vars(owner), (module, cls_name, attr)
        assert callable(getattr(owner, attr, None)), (module, attr)
