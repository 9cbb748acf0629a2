"""perfbench/tracerun.py wraps tracemap's functions and methods by name, so a
renamed or deleted name fails here as well as in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACERUN = Path(__file__).resolve().parent.parent / "perfbench" / "tracerun.py"


def _tracerun():
    spec = importlib.util.spec_from_file_location("tracerun", TRACERUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_in_tracemap():
    tracerun = _tracerun()
    missing = []
    for layer, names in tracerun.FUNCTIONS.items():
        module = importlib.import_module(f"tracemap.{layer}")
        missing += [f"{layer}.{n}" for n in names if not callable(getattr(module, n, None))]
    for layer, classes in tracerun.METHODS.items():
        module = importlib.import_module(f"tracemap.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name, None)
            missing += [f"{layer}.{cls_name}.{m}" for m in methods if not callable(getattr(cls, m, None))]
    assert missing == []
    assert sum(map(len, tracerun.FUNCTIONS.values())) > 0 and tracerun.METHODS
