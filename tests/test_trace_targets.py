"""Every attribute the benchmark's traced run wraps still exists.

perfbench/trace.py replaces module attributes by name; a deleted or renamed
function would only show when a run asks for ``--trace 1``.  This test
loads that module from its file, without changing it, and resolves each
target the way the tracer does."""

import importlib.util
from pathlib import Path

import pytest

TRACE_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _trace_module():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = _trace_module()


@pytest.mark.parametrize("module,path", sorted(
    {entry[:2] for entry in TRACE.SPAN_TARGETS + TRACE.COUNT_TARGETS}))
def test_trace_target_resolves(module, path):
    owner, attr = TRACE._resolve(module, path)
    assert callable(getattr(owner, attr))
