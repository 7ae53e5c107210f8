"""The traced benchmark run wraps package functions by module attribute.

A refactor that drops one of those attributes (for example an import that a
module no longer needs) breaks the traced run; this catches it in the test
suite instead.
"""

import importlib.util
from pathlib import Path

import pytest

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.trace_points()


@pytest.mark.parametrize("owner, attr", [
    pytest.param(owner, attr, id=f"{owner.__name__}.{attr}")
    for owner, attr, *_ in _trace_points()
])
def test_trace_point_is_bound(owner, attr):
    assert attr in vars(owner)
