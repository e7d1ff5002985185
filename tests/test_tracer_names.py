"""The names the benchmark's tracer wraps must exist in slopechar.

`perfbench/spans.py` patches slopechar functions by module and attribute
path.  A rename or deletion there would only fail a traced benchmark run;
here it fails the test suite.  spans.py is loaded by path and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS = _spans()
ENTRIES = sorted({**SPANS.SPANS, **SPANS.COUNTS}.items())


@pytest.mark.parametrize("name, target", ENTRIES, ids=[name for name, _ in ENTRIES])
def test_traced_name_resolves(name, target):
    modname, path = target
    owner = importlib.import_module(f"slopechar.{modname}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_result_counts_name_traced_spans():
    assert set(SPANS.RESULT_COUNTS) <= set(SPANS.SPANS)
