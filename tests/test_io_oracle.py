"""Differential tests: `dtmask.io` against the reference readers and writers.

Valid files come from the reference writers, with or without comments,
and are then mutated: comments anywhere, every ASCII whitespace byte,
glued digits, bad digits, missing or extra tokens, huge integers and
non-ASCII bytes.  Wherever the reference reader accepts a file, the
reader must return the same value; wherever either side rejects it, the
reader must raise FormatError and nothing else.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dtmask import (
    BinaryMask,
    BitPlaneStack,
    Box,
    BoxProposal,
    FormatError,
    LabelMap,
    QuantizationScheme,
    TruncatedDistanceMap,
    read_bps,
    read_dtm,
    read_label_map,
    read_mask,
    read_proposals,
    write_bps,
    write_csv,
    write_dtm,
    write_label_map,
    write_mask,
    write_proposals,
)

from helpers import (
    read_bps_oracle,
    read_dtm_oracle,
    read_label_map_oracle,
    read_mask_oracle,
    read_proposals_oracle,
    write_bps_oracle,
    write_csv_oracle,
    write_dtm_oracle,
    write_label_map_oracle,
    write_mask_oracle,
    write_proposals_oracle,
)

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

WHITESPACE = [bytes([b]) for b in b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"]
TOKENS = [
    b"0", b"1", b"2", b"9", b"01", b"-1", b"+3", b"1_0", b"x", b"P1",
    b"2147483648", b"4294967296", b"99999999999999999999",
]
NON_ASCII = [b"\x80", b"\xe9", b"\xff"]
ASCII = st.text(st.characters(min_codepoint=0, max_codepoint=127), max_size=6)
COMMENTS = st.lists(ASCII.filter(lambda c: "\n" not in c and "\r" not in c), max_size=2)


def _refused(write, path, comments) -> bool:
    """True if a comment holds one of the other str.splitlines breaks,
    after checking that `write(path)` refuses it and creates nothing: the
    reference writers keep such a comment, which then reads back as data."""
    if not any(ch in "\x0b\x0c\x1c\x1d\x1e" for c in comments for ch in c):
        return False
    with pytest.raises(ValueError, match="^comment "):
        write(path)
    assert not path.exists() and not path.with_name(path.stem + "_masks").exists()
    return True

shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))


@st.composite
def masks(draw):
    h, w = draw(shapes)
    bits = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
    return BinaryMask(np.array(bits).reshape(h, w))


@st.composite
def label_maps(draw):
    h, w = draw(shapes)
    values = st.integers(0, 12) | st.just(2**31 - 1)
    labels = draw(st.lists(values, min_size=h * w, max_size=h * w))
    return LabelMap(np.array(labels).reshape(h, w))


@st.composite
def distance_maps(draw):
    h, w = draw(shapes)
    cap = draw(st.integers(1, 15))
    values = draw(st.lists(st.integers(0, cap), min_size=h * w, max_size=h * w))
    return TruncatedDistanceMap(np.array(values).reshape(h, w), cap)


@st.composite
def stacks(draw):
    h, w = draw(shapes)
    bins = draw(st.integers(2, 4))
    steps = draw(st.lists(st.integers(1, 4), min_size=bins - 1, max_size=bins - 1))
    radii = tuple(int(r) for r in np.cumsum([0, *steps]))
    scheme = QuantizationScheme(radii)
    idx = np.array(draw(st.lists(st.integers(0, bins - 1), min_size=h * w, max_size=h * w)))
    planes = idx.reshape(1, h, w) == np.arange(bins).reshape(-1, 1, 1)
    return BitPlaneStack(planes, scheme)


def _same_mask(a, b):
    return np.array_equal(a.pixels, b.pixels)


def _same_labels(a, b):
    return np.array_equal(a.labels, b.labels)


def _same_dtm(a, b):
    return a.radius_cap == b.radius_cap and np.array_equal(a.values, b.values)


def _same_stack(a, b):
    return a.scheme == b.scheme and np.array_equal(a.planes, b.planes)


# name: (values, writer, reference writer, reader, reference reader, equality)
FORMATS = {
    "pbm": (masks(), write_mask, write_mask_oracle, read_mask, read_mask_oracle, _same_mask),
    "pgm": (
        label_maps(), write_label_map, write_label_map_oracle,
        read_label_map, read_label_map_oracle, _same_labels,
    ),
    "dtm": (distance_maps(), write_dtm, write_dtm_oracle, read_dtm, read_dtm_oracle, _same_dtm),
    "bps": (stacks(), write_bps, write_bps_oracle, read_bps, read_bps_oracle, _same_stack),
    "bps-lax": (
        stacks(), write_bps, write_bps_oracle,
        lambda p: read_bps(p, lax=True), lambda p: read_bps_oracle(p, lax=True), _same_stack,
    ),
}

# (kind, position, payload); positions wrap around the file length.
mutations = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(0, 1000),
            st.sampled_from(WHITESPACE + TOKENS + NON_ASCII)
            | ASCII.map(lambda c: b"#" + c.encode("ascii")),
        ),
        st.tuples(st.just("replace"), st.integers(0, 1000), st.sampled_from(TOKENS + NON_ASCII)),
        st.tuples(st.just("delete"), st.integers(0, 1000), st.integers(1, 3)),
        st.tuples(st.just("respace"), st.sampled_from(WHITESPACE), st.sampled_from(WHITESPACE)),
        st.tuples(st.just("truncate"), st.integers(0, 1000), st.none()),
    ),
    max_size=3,
)


def _mutate(data: bytes, ops) -> bytes:
    for kind, where, payload in ops:
        if kind == "respace":
            data = data.replace(where, payload)
            continue
        k = where % (len(data) + 1)
        if kind == "insert":
            data = data[:k] + payload + data[k:]
        elif kind == "replace":
            data = data[:k] + payload + data[k + 1 :]
        elif kind == "delete":
            data = data[:k] + data[k + payload :]
        else:
            data = data[:k]
    return data


@pytest.mark.parametrize("name", FORMATS)
@SETTINGS
@given(data=st.data(), comments=COMMENTS)
def test_writer_bytes_match_the_reference(tmp_path, name, data, comments):
    values, write, write_oracle, *_ = FORMATS[name]
    value = data.draw(values)
    if _refused(lambda p: write(p, value, comments), tmp_path / "refused", comments):
        return
    write(tmp_path / "new", value, comments)
    write_oracle(tmp_path / "old", value, comments)
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


@pytest.mark.parametrize("name", FORMATS)
@SETTINGS
@given(data=st.data(), comments=COMMENTS, ops=mutations)
def test_reader_matches_the_reference_on_mutated_files(tmp_path, name, data, comments, ops):
    values, _, write_oracle, read, read_oracle, same = FORMATS[name]
    path = tmp_path / "f"
    write_oracle(path, data.draw(values), comments)
    path.write_bytes(_mutate(path.read_bytes(), ops))
    try:
        want = read_oracle(path)
    except Exception:  # the reference rejects: UnicodeDecodeError, OverflowError, ...
        with pytest.raises(FormatError):
            read(path)
        return
    assert same(read(path), want)


@SETTINGS
@given(
    rows=st.lists(
        st.tuples(st.integers(-5, 10**20), st.floats(allow_nan=False), st.booleans(), ASCII),
        max_size=4,
    ),
    comments=COMMENTS,
)
def test_csv_bytes_match_the_reference(tmp_path, rows, comments):
    header = ["n", "x", "ok", "name"]
    if _refused(lambda p: write_csv(p, header, rows, comments), tmp_path / "refused.csv", comments):
        return
    write_csv(tmp_path / "new.csv", header, rows, comments)
    write_csv_oracle(tmp_path / "old.csv", header, rows, comments)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@SETTINGS
@given(data=st.data(), comments=COMMENTS, ops=mutations)
def test_proposals_match_the_reference(tmp_path, data, comments, ops):
    props = []
    for _ in range(data.draw(st.integers(0, 3))):
        mask = data.draw(masks() | st.none())
        if mask is None:
            props.append(BoxProposal(Box(1, 2, 4, 4), data.draw(st.floats(0, 1))))
        else:
            box = Box(0, 0, mask.width, mask.height)
            props.append(BoxProposal(box, data.draw(st.floats(0, 1)), mask))
    # same file name in sibling directories, so the mask references match
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir(exist_ok=True)
    old.mkdir(exist_ok=True)
    write_proposals_oracle(old / "p.txt", props, comments=comments)
    if not _refused(lambda p: write_proposals(p, props, comments=comments), new / "refused.txt", comments):
        write_proposals(new / "p.txt", props, comments=comments)
        written = [f"p_masks/mask_{i:04d}.pbm" for i, p in enumerate(props) if p.mask is not None]
        for name in ["p.txt", *written]:
            assert (new / name).read_bytes() == (old / name).read_bytes()

    path = old / "p.txt"
    path.write_bytes(_mutate(path.read_bytes(), ops))
    try:
        want = read_proposals_oracle(path)
    except Exception:
        with pytest.raises(FormatError):
            read_proposals(path)
        return
    got = read_proposals(path)
    assert [(p.box, p.score) for p in got] == [
        (p.box, p.score) for p in want
    ]
    for p, q in zip(got, want):
        assert (p.mask is None) == (q.mask is None)
        assert p.mask is None or _same_mask(p.mask, q.mask)


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "read, text",
    [
        (read_mask, f"P1 {HUGE} 1\n0\n"),
        (read_mask, f"P1 1 {HUGE}\n0\n"),
        (read_mask, "P1 1000000 1000000\n0\n"),
        (read_label_map, f"P2 {HUGE} 1 3\n0\n"),
        (read_label_map, f"P2 1 {HUGE} 3\n0\n"),
        (read_dtm, f"DTM {HUGE} 1 5\n0\n"),
        (read_dtm, "DTM 1000000 1000000 5\n0\n"),
        (read_bps, f"BPS 1 1 {HUGE} 0 1\n1\n0\n"),
        (read_bps, f"BPS {HUGE} 1 2 0 1\n1\n0\n"),
        (read_bps, f"BPS 1 {HUGE} 2 0 1\n1\n0\n"),
        (read_bps, "BPS 1000000 1000000 1000000 0 1\n1\n0\n"),
    ],
)
def test_huge_header_counts_allocate_nothing(tmp_path, read, text):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
