"""The integer-body digit decode and the comment strip of `dtmask.io`.

`read_label_map` and `read_dtm` decode a body of ASCII digits and
whitespace with numpy and take the token-by-token path for anything
else.  These cases sit on the edges between the two: int64 limits,
19-digit tokens, every separator byte, comments and miscounted bodies.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtmask import FormatError, LabelMap, read_dtm, read_label_map, write_label_map
from dtmask.grid import MAX_LABEL
from dtmask.io import _SPACE, _strip_comments

from helpers import _COMMENT_ORACLE, read_dtm_oracle, read_label_map_oracle

READERS = {
    "pgm": (b"P2", read_label_map, read_label_map_oracle),
    "dtm": (b"DTM", read_dtm, read_dtm_oracle),
}


@pytest.fixture(params=sorted(READERS))
def reader(request):
    return READERS[request.param]


def _write(path, magic, width, height, body):
    # The maxval (or radius cap) is the largest value either format stores.
    path.write_bytes(b"%s %d %d %d\n" % (magic, width, height, MAX_LABEL) + body)
    return path


def _raster(value):
    return value.labels if isinstance(value, LabelMap) else value.values


def _agree(path, read, oracle):
    """`read` returns the oracle's raster, or raises a FormatError whose
    text begins with the oracle's; an oracle that overflows int64
    counts as a rejection.  Returns the error, if any."""
    try:
        want = oracle(path)
    except (FormatError, OverflowError) as exc:
        with pytest.raises(FormatError) as got:
            read(path)
        if isinstance(exc, FormatError):
            assert str(got.value).startswith(str(exc))
        return got.value
    assert np.array_equal(_raster(read(path)), _raster(want))
    return None


class TestDigitBodies:
    @pytest.mark.parametrize(
        "token, accepted",
        [
            (b"2147483647", True),
            (b"999999999999999999", False),
            (b"9223372036854775807", False),
            (b"9223372036854775808", False),
            (b"0000000000000000000007", True),
        ],
        ids=["int32-max", "18-digits", "int64-max", "int64-max+1", "22-digit-7"],
    )
    def test_long_tokens(self, tmp_path, reader, token, accepted):
        magic, read, oracle = reader
        path = _write(tmp_path / "f", magic, 2, 1, b"1 " + token + b"\n")
        err = _agree(path, read, oracle)
        assert (err is None) == accepted
        if err is not None:
            assert f"value {int(token)} " in str(err)

    def test_one_and_many_digit_tokens_mixed(self, tmp_path, reader):
        magic, read, oracle = reader
        body = b"0 7 10 123\n2147483647 5 00 9\n"
        assert _agree(_write(tmp_path / "f", magic, 4, 2, body), read, oracle) is None

    @pytest.mark.parametrize("sep", [bytes([b]) for b in _SPACE], ids=lambda b: f"0x{b[0]:02x}")
    def test_every_separator(self, tmp_path, reader, sep):
        magic, read, oracle = reader
        for tokens in ([b"1", b"0", b"3", b"2"], [b"1", b"23", b"0", b"456"]):
            body = sep + sep.join(tokens) + sep
            assert _agree(_write(tmp_path / "f", magic, 2, 2, body), read, oracle) is None

    @pytest.mark.parametrize(
        "body",
        [b"1 2 # 3 4\n34 5", b"1 2 34 5 # no newline at EOF", b"1 2 # a # b\n34 # c\n5\n"],
        ids=["mid-body", "at-eof", "hash-in-comment"],
    )
    def test_comments(self, tmp_path, reader, body):
        magic, read, oracle = reader
        path = _write(tmp_path / "f", magic, 2, 2, body)
        assert _agree(path, read, oracle) is None
        assert _raster(read(path)).tolist() == [[1, 2], [34, 5]]

    @pytest.mark.parametrize(
        "body",
        [b"1 2 3", b"1 2 3 4 5", b"1 22 3", b"1 22 3 4 5"],
        ids=["few", "many", "few-multi-digit", "many-multi-digit"],
    )
    def test_miscount_names_the_counts(self, tmp_path, reader, body):
        magic, read, oracle = reader
        path = _write(tmp_path / "f", magic, 2, 2, body)
        fast = str(_agree(path, read, oracle))
        # A sign is not a digit, so the same count goes the token-by-token way.
        _write(path, magic, 2, 2, body.replace(b"1", b"+1", 1))
        slow = str(_agree(path, read, oracle))
        assert fast == slow
        assert "expected 4 " in fast and f"found {len(body.split())} " in fast


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(list(b"01 #a\n\r\x0b\x0c\x1c\x1d\x1e\x1f")), max_size=24).map(bytes))
def test_comment_strip_matches_the_regex(data):
    assert _strip_comments(data) == _COMMENT_ORACLE.sub(b"", data)


def test_label_map_read_memory(tmp_path):
    """A one-digit body is decoded with byte and bool temporaries only."""
    labels = np.random.default_rng(2024).integers(0, 10, (512, 512))
    path = tmp_path / "scene.pgm"
    write_label_map(path, LabelMap(labels), comments=["seeded"])
    tracemalloc.start()
    try:
        got = read_label_map(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.labels, labels)
    assert peak / labels.size < 24
