import importlib.util
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import dtmask
import dtmask.cli  # noqa: F401  (imports every module the benchmark tracer wraps)
from dtmask.grid import sample_raster


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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the README's one python block runs as written against the package
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})


_MASK = dtmask.BinaryMask(np.ones((4, 4), dtype=bool))
_STACK = dtmask.encode(dtmask.truncated_edt(_MASK, 5), dtmask.make_uniform_scheme(3, 5))
_PROPS = [dtmask.BoxProposal(dtmask.Box(0, 0, 2, 2), 0.5, _MASK)]


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: dtmask.corrupt(_STACK, 0.1, 1.5), "seed must be an integer, got 1.5"),
        (lambda: dtmask.top_scoring(_PROPS, 1.5), "proposal budget must be an integer, got 1.5"),
        (lambda: dtmask.average_recall(_PROPS, [_MASK], 1.5), "proposal budget must be an integer, got 1.5"),
        (lambda: dtmask.evaluate(_PROPS, [_MASK], ar_ns=(2.5,)), "proposal budget must be an integer, got 2.5"),
        (
            lambda: sample_raster(_MASK.pixels, dtmask.Box(0, 0, 2, 2), 2.5, 2),
            "resize target width must be an integer, got 2.5",
        ),
        (
            lambda: sample_raster(_MASK.pixels, dtmask.Box(0, 0, 2, 2), 2, 2.0),
            "resize target height must be an integer, got 2.0",
        ),
        (
            lambda: dtmask.decode_to_canvas(_STACK, dtmask.WindowSpec(dtmask.Box(0, 0, 4, 4), 4, 4), 5.5, 5),
            "canvas width must be an integer, got 5.5",
        ),
        (lambda: dtmask.extract_instance(dtmask.LabelMap([[1]]), 1.0), "instance id must be an integer, got 1.0"),
        (lambda: dtmask.extract_instance(dtmask.LabelMap([[1]]), 1.5), "instance id must be an integer, got 1.5"),
    ],
    ids=[
        "corrupt-seed",
        "top_scoring",
        "average_recall",
        "evaluate-ar_ns",
        "sample_raster-width",
        "sample_raster-height",
        "decode_to_canvas",
        "extract_instance-1.0",
        "extract_instance-1.5",
    ],
)
def test_counts_and_sizes_must_be_integers(call, want):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == want
