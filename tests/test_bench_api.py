"""The benchmark's tracer wraps package functions by name; check that every
name it lists still exists and takes the arguments it records, so a rename
or deletion fails here rather than in a traced benchmark run."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    # executed from its source text, so nothing is written under bench/
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


TRACED = _load_spans().TRACED


@pytest.mark.parametrize("modname, qualname, keep", TRACED,
                         ids=[f"{m}.{q}" for m, q, _ in TRACED])
def test_traced_name_resolves(modname, qualname, keep):
    owner = importlib.import_module(f"l1conc.{modname}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    params = inspect.signature(owner).parameters
    assert [name for name in keep if name not in params] == []
