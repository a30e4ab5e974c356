"""The benchmark's external tracer patches hatd4 by name; every name it
lists must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    tracer = _tracer()
    missing = []
    for _span, mod, attr in tracer.ENTRY_POINTS:
        if not callable(getattr(importlib.import_module("hatd4." + mod), attr, None)):
            missing.append("%s.%s" % (mod, attr))
    for mod, cls, meth in tracer.METHODS.values():
        owner = getattr(importlib.import_module("hatd4." + mod), cls, None)
        if owner is None or meth not in vars(owner):
            missing.append("%s.%s.%s" % (mod, cls, meth))
    assert not missing
