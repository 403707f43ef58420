"""The header tokeniser and the bit reader of `dtmask.io`.

Header tokens are read one regex match at a time, past whitespace and
'#' comments; a bit body (PBM, BPS) is one translate of the whole file,
read as a view past the header, and only a body holding a '#' is
stripped and joined first.  These cases sit on the edges of that split:
comments touching tokens, comment lines between header and body, the
join path, the bytes the translate table swaps, every comment line
break, and the header integer grammar.  Each is checked against the
reference readers in `tests/helpers.py`, error text included.
"""

import tracemalloc

import numpy as np
import pytest

from dtmask import (
    BinaryMask,
    FormatError,
    make_uniform_scheme,
    read_bps,
    read_label_map,
    read_mask,
    write_bps,
    write_mask,
)
from dtmask.cli import main

from helpers import random_one_hot, read_bps_oracle, read_label_map_oracle, read_mask_oracle

# name: (reader, reference reader, the value's scheme and raster)
READERS = {
    "pbm": (read_mask, read_mask_oracle, lambda v: (None, v.pixels)),
    "bps": (read_bps, read_bps_oracle, lambda v: (v.scheme, v.planes)),
    "pgm": (read_label_map, read_label_map_oracle, lambda v: (None, v.labels)),
}


def _agree(path, name):
    """The reader returns the oracle's value, or raises a FormatError
    whose text begins with the oracle's.  Returns the error, if any."""
    read, oracle, parts = READERS[name]
    try:
        want = oracle(path)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            read(path)
        assert str(got.value).startswith(str(exc))
        return got.value
    (scheme, raster), (want_scheme, want_raster) = parts(read(path)), parts(want)
    assert scheme == want_scheme and np.array_equal(raster, want_raster)
    return None


class TestComments:
    @pytest.mark.parametrize(
        "name, text",
        [
            ("bps", b"BPS 2#c\n1 2 0 3\n1 0\n0 1\n"),
            ("bps", b"BPS#m\n2#w\n1#h\n2#k\n0#r1\n3#r2\n1 0\n0 1\n"),
            ("pbm", b"P1#m\n2#w\n1#h\n1 0\n"),
            ("pgm", b"P2 2 1 9#maxval\n7 8\n"),
        ],
        ids=["bps-width", "bps-every-token", "pbm-every-token", "pgm-maxval"],
    )
    def test_comment_touching_a_header_token(self, tmp_path, name, text):
        path = tmp_path / "f"
        path.write_bytes(text)
        assert _agree(path, name) is None

    @pytest.mark.parametrize(
        "name, text",
        [
            ("bps", b"BPS 2 1 2 0 3\n# dtmask encode\n# bins=2\n\n#\n1 0\n0 1\n"),
            ("pbm", b"P1\n# a\n2 1\n# b\n   # c\n1 0"),
        ],
    )
    def test_comment_lines_between_header_and_body(self, tmp_path, name, text):
        path = tmp_path / "f"
        path.write_bytes(text)
        assert _agree(path, name) is None

    @pytest.mark.parametrize(
        "name, text, accepted",
        [
            ("bps", b"BPS 2 1 2 0 3\n1 0 # plane 1\n# plane 2\n0 1", True),
            ("bps", b"BPS 2 1 2 0 3\n1 0\n0#glued\n1#at eof", True),
            ("pbm", b"P1 2 2\n1 # a 2\n0\n1 1 # b", True),
            ("pbm", b"P1 2 2\n1 # a\n0 2 1\n", False),
            ("pbm", b"P1 2 2\n1 # a\n0 1\n", False),
        ],
        ids=["bps-between-planes", "bps-glued", "pbm-inside-rows", "pbm-bad-digit", "pbm-short"],
    )
    def test_hash_in_the_body_takes_the_join(self, tmp_path, name, text, accepted):
        path = tmp_path / "f"
        path.write_bytes(text)
        assert (_agree(path, name) is None) == accepted

    @pytest.mark.parametrize("brk", [bytes([b]) for b in b"\n\r\x0b\x0c\x1c\x1d\x1e"], ids=lambda b: f"0x{b[0]:02x}")
    def test_comment_ends_at_every_line_break(self, tmp_path, brk):
        # in the header, touching a token, after the header and in the body
        path = tmp_path / "f"
        text = b"BPS 2 1#w" + brk + b"2 0 3 # r" + brk + b"# line" + brk + b"1 0 # p" + brk + b"0 1"
        path.write_bytes(text)
        assert _agree(path, "bps") is None
        assert read_bps(path).planes.tolist() == [[[True, False]], [[False, True]]]
        path.write_bytes(text.replace(brk, b"\x1f"))  # not a line break: all comment
        assert _agree(path, "bps") is not None


class TestSwappedBytes:
    @pytest.mark.parametrize("byte", [0x00, 0x01])
    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("pbm", b"P1 2 2\n1 0\n1 %c\n", "pixel (file {}, row 1, column 1)"),
            ("bps", b"BPS 2 1 2 0 3\n1 0\n%c 1\n", "plane (file {}, plane 1, row 0, column 0)"),
            ("bps", b"BPS 2 1 2 0 3\n1 0\n%c 1 # c\n", "plane (file {}, plane 1, row 0, column 0)"),
        ],
        ids=["pbm", "bps", "bps-join"],
    )
    def test_rejected_naming_the_file_byte(self, tmp_path, byte, name, text, where):
        # the translate table maps 0x00 and 0x01 to '0' and '1', which
        # read as > 1, and maps them back for the message
        path = tmp_path / "f"
        path.write_bytes(text % byte)
        assert str(_agree(path, name)) == f"non-binary digit {chr(byte)!r} in {where.format(path)}"

    def test_digits_in_the_header_are_not_swapped(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"P1 10 1\n1 0 1 1 0 0 0 1 0 1\n")
        assert read_mask(path).pixels.tolist() == [[1, 0, 1, 1, 0, 0, 0, 1, 0, 1]]


class TestHeaderIntegers:
    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("pgm", b"P2 +2 1 +9\n1 0\n", "width must be a decimal integer of ASCII digits, got '+2'"),
            ("pgm", b"P2 0_2 1 9\n1 0\n", "width must be a decimal integer of ASCII digits, got '0_2'"),
            ("pgm", b"P2 2 1 -9\n1 0\n", "maxval must be a decimal integer of ASCII digits, got '-9'"),
            ("pbm", b"P1 +2 1\n1 0\n", "width must be a decimal integer of ASCII digits, got '+2'"),
            ("pbm", b"P1 2 x\n1 0\n", "height must be a decimal integer of ASCII digits, got 'x'"),
            ("bps", b"BPS 2 1 2 0 1_0\n1 0\n0 1\n", "bin radius 2 must be a decimal integer of ASCII digits, got '1_0'"),
        ],
    )
    def test_only_ascii_digits(self, tmp_path, name, text, message):
        path = tmp_path / "f"
        path.write_bytes(text)
        assert str(_agree(path, name)) == f"{message} (file {path})"

    @pytest.mark.parametrize("zeros", [18, 40, 5000])
    def test_zero_padded_tokens_read_exactly(self, tmp_path, zeros):
        # 19 digits and more, past int64 and past int()'s digit limit
        pad = b"0" * zeros
        path = tmp_path / "f"
        header = b" ".join(pad + t for t in (b"2", b"1", b"2", b"", b"%d" % 10**28))
        path.write_bytes(b"BPS " + header + b"\n1 0\n0 1\n")
        assert _agree(path, "bps") is None
        got = read_bps(path)
        assert got.scheme.radii == (0, 10**28) and got.planes.shape == (2, 1, 2)

    @pytest.mark.parametrize(
        "command, text, what",
        [
            ("boxsim", b"P2 +2 1 +9\n1 0\n", "width"),
            ("boxsim", b"P2 0_2 1 9\n1 0\n", "width"),
            ("dt", b"P1 +2 1\n1 0\n", "width"),
            ("decode", b"BPS 2 1 2 0 1_0\n1 0\n0 1\n", "bin radius 2"),
        ],
    )
    def test_cli_exits_2_naming_the_file(self, tmp_path, capsys, command, text, what):
        path = tmp_path / "in.txt"
        path.write_bytes(text)
        out = tmp_path / "out"
        inputs = ["--labels", path, "--id", 1, "--box", "0,0,2,1"] if command == "boxsim" else ["--in", path]
        assert main([str(a) for a in [command, *inputs, "--out", out]]) == 2
        err = capsys.readouterr().err
        assert f"{what} must be a decimal integer of ASCII digits" in err and f"(file {path})" in err
        assert not out.exists()


class TestReadInPlace:
    @pytest.mark.parametrize("name", ["pbm", "bps"])
    def test_rasters_view_an_immutable_buffer(self, tmp_path, name):
        # nothing can make them writable again: they view bytes
        path = tmp_path / "f"
        rng = np.random.default_rng(7)
        if name == "bps":
            write_bps(path, random_one_hot(rng, make_uniform_scheme(3, 4)), ["c"])
        else:
            write_mask(path, BinaryMask(rng.random((5, 7)) < 0.5), ["c"])
        _, raster = READERS[name][2](READERS[name][0](path))
        with pytest.raises(ValueError):
            raster.setflags(write=True)

    @pytest.mark.parametrize(
        "name, budget",
        [
            # measured 20.01 B/px: the file (10 B/px at K = 5) and the
            # translate's full-size output before it shrinks to 5 B/px
            ("bps", 20.5),
            # measured 4.005 B/px: the file and the translate's output
            ("pbm", 4.25),
        ],
    )
    def test_memory_per_pixel(self, tmp_path, name, budget):
        rng = np.random.default_rng(11)
        path = tmp_path / "f"
        if name == "bps":
            value = random_one_hot(rng, make_uniform_scheme(5, 13), min_size=256, max_size=256)
            write_bps(path, value, ["dtmask encode", "bins=5 radius=13"])
        else:
            value = BinaryMask(rng.random((256, 256)) < 0.5)
            write_mask(path, value, ["dtmask decode", "mode=conservative"])
        read, _, parts = READERS[name]
        read(path)  # warm up outside the trace
        tracemalloc.start()
        try:
            got = read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(parts(got)[1], parts(value)[1])
        assert peak / (256 * 256) < budget

    def test_write_memory_per_bit(self, tmp_path):
        # measured 2.003 B/bit at 1200^2, K = 5: the text buffer alone,
        # with no full-size temporary beside it
        stack = random_one_hot(np.random.default_rng(13), make_uniform_scheme(5, 13), 1200, 1200)
        write_bps(tmp_path / "warm.bps", stack, ["c"])
        tracemalloc.start()
        try:
            write_bps(tmp_path / "s.bps", stack, ["c"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(read_bps(tmp_path / "s.bps").planes, stack.planes)
        assert peak / stack.planes.size < 2.05
