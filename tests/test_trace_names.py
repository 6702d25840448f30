"""The benchmark's tracer wraps program functions by name; each must exist.

clibench/spans.py installs its wrappers one name at a time and stops at the
first that is missing, so a renamed function would crash every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "clibench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("clibench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    spans = _load_spans()
    for module_name in spans.MODULES:
        importlib.import_module(f"arnold_lab.{module_name}")
    names = [*spans.TIMED, *spans.COUNTED]
    assert ("numeric", "SeriesFn.inverse") in names
    for module_name, attribute in names:
        owner = importlib.import_module(f"arnold_lab.{module_name}")
        for part in attribute.split("."):
            assert hasattr(owner, part), f"arnold_lab.{module_name}.{attribute}"
            owner = getattr(owner, part)
        assert callable(owner), f"arnold_lab.{module_name}.{attribute}"
