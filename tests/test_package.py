import importlib.util
import sys
import types
from pathlib import Path

import dtmask
import dtmask.cli  # noqa: F401  (imports every module the benchmark tracer wraps)


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(dtmask).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(dtmask.__all__) == public
    assert len(dtmask.__all__) == len(public)


def test_no_oracle_is_public():
    # reference implementations live with the tests, not in the package
    assert [name for name in dtmask.__all__ if name.endswith("_oracle")] == []


def test_benchmark_tracer_finds_every_traced_name(monkeypatch):
    # the benchmark's tracer wraps functions by name; a removed or renamed
    # one would only surface in a traced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    entries = [entry[:2] for entry in tracer.SPANS + tracer.LEAVES]
    assert entries
    for module_name, attr_path in entries:
        tracer._lookup(module_name, attr_path)
