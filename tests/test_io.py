import numpy as np
import pytest

from dtmask import (
    BinaryMask,
    BitPlaneStack,
    Box,
    BoxProposal,
    FormatError,
    LabelMap,
    QuantizationScheme,
    TruncatedDistanceMap,
    make_uniform_scheme,
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

from helpers import random_mask, random_one_hot, random_scheme


def _reserialize(tmp_path, write, read, value, name="twice"):
    a = tmp_path / f"{name}_a.txt"
    b = tmp_path / f"{name}_b.txt"
    write(a, value)
    write(b, read(a))
    return a.read_bytes(), b.read_bytes()


class TestMaskFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(163)
        for k in range(20):
            mask = random_mask(rng, max_size=32)
            path = tmp_path / f"m{k}.pbm"
            write_mask(path, mask)
            assert np.array_equal(read_mask(path).pixels, mask.pixels)

    def test_exact_output(self, tmp_path):
        mask = BinaryMask([[1, 0], [0, 1], [1, 1]])
        path = tmp_path / "m.pbm"
        write_mask(path, mask, comments=["made by hand"])
        assert path.read_bytes() == b"P1\n# made by hand\n2 3\n1 0\n0 1\n1 1\n"

    def test_reserialization_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(167)
        a, b = _reserialize(
            tmp_path, write_mask, read_mask, random_mask(rng, max_size=24)
        )
        assert a == b

    def test_reader_tolerates_comments_and_packing(self, tmp_path):
        path = tmp_path / "messy.pbm"
        path.write_text(
            "P1  # magic\n# a comment line\n\n  3 2\n101\n 0   1 0 # trailing\n"
        )
        got = read_mask(path)
        assert np.array_equal(got.pixels, [[1, 0, 1], [0, 1, 0]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_text("P5\n2 2\n0 0 0 0\n")
        with pytest.raises(FormatError, match="magic"):
            read_mask(path)
        path.write_text("")
        with pytest.raises(FormatError, match="magic"):
            read_mask(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pbm"
        path.write_text("P1\n2 2\n0 1 0\n")
        with pytest.raises(FormatError, match="expected 4"):
            read_mask(path)

    def test_non_binary_digit(self, tmp_path):
        path = tmp_path / "digits.pbm"
        path.write_text("P1\n2 2\n0 1 2 0\n")
        with pytest.raises(FormatError, match="non-binary"):
            read_mask(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "zero.pbm"
        path.write_text("P1\n0 2\n")
        with pytest.raises(FormatError, match="positive"):
            read_mask(path)

    def test_comment_ends_at_every_line_break(self, tmp_path):
        # a comment ends at any str.splitlines break, and \x1f separates
        # tokens like any other ASCII whitespace
        path = tmp_path / "breaks.pbm"
        for brk in b"\n\r\x0b\x0c\x1c\x1d\x1e":
            path.write_bytes(b"P1 2 1 # c" + bytes([brk]) + b"1\x1f0")
            assert np.array_equal(read_mask(path).pixels, [[1, 0]])
        path.write_bytes(b"P1 2 1 # c\x1f1 0\n1 0")
        assert np.array_equal(read_mask(path).pixels, [[1, 0]])

    def test_error_names_file_row_and_column(self, tmp_path):
        path = tmp_path / "digits.pbm"
        path.write_text("P1\n2 2\n0 1\n2 0\n")
        want = f"non-binary digit '2' in pixel (file {path}, row 1, column 0)"
        with pytest.raises(FormatError) as err:
            read_mask(path)
        assert str(err.value) == want


class TestLabelMapFormat:
    def test_roundtrip_and_maxval(self, tmp_path):
        labels = LabelMap([[0, 2, 2], [7, 0, 1]])
        path = tmp_path / "l.pgm"
        write_label_map(path, labels)
        assert path.read_text().splitlines()[2] == "7"
        got = read_label_map(path)
        assert np.array_equal(got.labels, labels.labels)
        assert got.instance_ids() == [1, 2, 7]

    def test_all_background_writes_maxval_zero(self, tmp_path):
        path = tmp_path / "bg.pgm"
        write_label_map(path, LabelMap(np.zeros((2, 2), int)))
        assert read_label_map(path).instance_ids() == []

    def test_value_above_maxval(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_text("P2\n2 1\n3\n1 4\n")
        with pytest.raises(FormatError, match="exceeds declared maxval"):
            read_label_map(path)

    @pytest.mark.parametrize("value", ["4294967297", "99999999999999999999"])
    def test_value_beyond_int32(self, tmp_path, value):
        # with a maxval that admits it, the label must not wrap to 1
        path = tmp_path / "big.pgm"
        path.write_text(f"P2\n2 1\n{value}\n1 {value}\n")
        with pytest.raises(FormatError, match=f"label value {value} exceeds the int32"):
            read_label_map(path)

    def test_int32_boundary(self, tmp_path):
        path = tmp_path / "edge.pgm"
        path.write_text("P2\n2 1\n2147483648\n1 2147483647\n")
        assert read_label_map(path).instance_ids() == [1, 2147483647]
        path.write_text("P2\n2 1\n2147483648\n1 2147483648\n")
        with pytest.raises(FormatError, match="2147483648 exceeds the int32 limit"):
            read_label_map(path)

    def test_negative_label(self, tmp_path):
        path = tmp_path / "neg.pgm"
        for value in ("-2", "-99999999999999999999"):
            path.write_text(f"P2\n2 1\n3\n1 {value}\n")
            with pytest.raises(FormatError, match="negative"):
                read_label_map(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "word.pgm"
        path.write_text("P2\n2 1\n3\n1 x\n")
        with pytest.raises(FormatError, match="integer"):
            read_label_map(path)

    def test_errors_name_file_row_and_column(self, tmp_path):
        path = tmp_path / "bad.pgm"
        for body, message, where in (
            ("1 2\n3 x", "label value must be an integer, got 'x'", "row 1, column 1"),
            ("1 -2\n3 0", "negative label value", "row 0, column 1"),
            ("1 2\n9 0", "label value 9 exceeds declared maxval 3", "row 1, column 0"),
        ):
            path.write_text(f"P2\n2 2\n3\n{body}\n")
            with pytest.raises(FormatError) as err:
                read_label_map(path)
            assert str(err.value) == f"{message} (file {path}, {where})"

    def test_reserialization_is_byte_identical(self, tmp_path):
        value = LabelMap([[3, 0, 3], [0, 12, 0]])
        a, b = _reserialize(tmp_path, write_label_map, read_label_map, value)
        assert a == b


class TestDistanceMapFormat:
    def test_roundtrip(self, tmp_path):
        dmap = TruncatedDistanceMap([[0, 1, 2], [3, 4, 13]], 13)
        path = tmp_path / "d.dtm"
        write_dtm(path, dmap)
        got = read_dtm(path)
        assert got.radius_cap == 13
        assert np.array_equal(got.values, dmap.values)

    def test_exact_output(self, tmp_path):
        path = tmp_path / "d.dtm"
        write_dtm(path, TruncatedDistanceMap([[0, 1, 2], [3, 4, 5]], 13))
        assert path.read_bytes() == b"DTM 3 2 13\n0 1 2\n3 4 5\n"

    def test_value_above_cap(self, tmp_path):
        path = tmp_path / "over.dtm"
        path.write_text("DTM 2 1 5\n0 6\n")
        with pytest.raises(FormatError, match="outside"):
            read_dtm(path)

    @pytest.mark.parametrize("value", ["99999999999999999999", "-99999999999999999999"])
    def test_value_beyond_int64(self, tmp_path, value):
        path = tmp_path / "big.dtm"
        path.write_text(f"DTM 2 1 5\n0 {value}\n")
        with pytest.raises(FormatError) as err:
            read_dtm(path)
        want = f"distance value {value} outside [0, 5] (file {path}, row 0, column 1)"
        assert str(err.value) == want

    def test_value_beyond_int32_with_a_larger_cap(self, tmp_path):
        # values are stored as int32; with a cap that admits it, 2**32
        # must not wrap to 0
        path = tmp_path / "big.dtm"
        path.write_text("DTM 2 1 99999999999\n1 4294967296\n")
        with pytest.raises(FormatError, match=r"4294967296 outside \[0, 2147483647\]"):
            read_dtm(path)

    def test_bad_cap(self, tmp_path):
        path = tmp_path / "cap.dtm"
        path.write_text("DTM 2 1 0\n0 0\n")
        with pytest.raises(FormatError, match="radius cap"):
            read_dtm(path)

    def test_reserialization_is_byte_identical(self, tmp_path):
        value = TruncatedDistanceMap([[0, 5], [13, 2]], 13)
        a, b = _reserialize(tmp_path, write_dtm, read_dtm, value)
        assert a == b


def _tiny_stack():
    planes = np.zeros((5, 2, 3), dtype=bool)
    planes[0] = True
    planes[0, 1, 2] = False
    planes[2, 1, 2] = True
    return BitPlaneStack(planes, make_uniform_scheme(5, 13))


class TestBitPlaneFormat:
    def test_header_carries_radii(self, tmp_path):
        path = tmp_path / "s.bps"
        write_bps(path, _tiny_stack())
        assert path.read_text().splitlines()[0] == "BPS 3 2 5 0 1 4 7 10"

    def test_roundtrip_keeps_the_scheme(self, tmp_path):
        stack = _tiny_stack()
        path = tmp_path / "s.bps"
        write_bps(path, stack)
        got = read_bps(path)
        assert np.array_equal(got.planes, stack.planes)
        assert got.scheme.radii == (0, 1, 4, 7, 10)
        assert got.scheme == stack.scheme

    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(173)
        for k in range(15):
            stack = random_one_hot(rng, random_scheme(rng), max_size=16)
            path = tmp_path / f"s{k}.bps"
            write_bps(path, stack)
            got = read_bps(path)
            assert np.array_equal(got.planes, stack.planes)
            assert got.scheme.radii == stack.scheme.radii

    def test_reserialization_is_byte_identical(self, tmp_path):
        a, b = _reserialize(tmp_path, write_bps, read_bps, _tiny_stack())
        assert a == b

    def test_one_hot_violation_names_pixel(self, tmp_path):
        path = tmp_path / "bad.bps"
        path.write_text("BPS 2 1 2 0 3\n1 1\n0 1\n")
        with pytest.raises(FormatError, match=r"\(1, 0\): 2 bits"):
            read_bps(path)

    def test_lax_read_accepts_violations(self, tmp_path):
        path = tmp_path / "bad.bps"
        path.write_text("BPS 2 1 2 0 3\n1 1\n0 1\n")
        got = read_bps(path, lax=True)
        assert np.array_equal(got.planes, [[[1, 1]], [[0, 1]]])

    def test_bad_radii(self, tmp_path):
        path = tmp_path / "radii.bps"
        path.write_text("BPS 2 1 2 0 0\n1 1\n0 0\n")
        with pytest.raises(FormatError, match="strictly increasing"):
            read_bps(path)
        path.write_text("BPS 2 1 2 1 3\n1 1\n0 0\n")
        with pytest.raises(FormatError, match="first bin radius"):
            read_bps(path)

    def test_plane_count_validated(self, tmp_path):
        path = tmp_path / "count.bps"
        path.write_text("BPS 2 1 1 0\n1 1\n")
        with pytest.raises(FormatError, match="plane count"):
            read_bps(path)

    def test_bad_digit_names_plane_row_and_column(self, tmp_path):
        path = tmp_path / "bad.bps"
        path.write_text("BPS 2 2 2 0 3\n1 1\n1 1\n0 0\n0 5\n")
        with pytest.raises(FormatError) as err:
            read_bps(path)
        want = f"non-binary digit '5' in plane (file {path}, plane 1, row 1, column 1)"
        assert str(err.value) == want

    def test_truncated_planes(self, tmp_path):
        path = tmp_path / "short.bps"
        path.write_text("BPS 2 2 2 0 3\n1 1 1 1\n0 0\n")
        with pytest.raises(FormatError, match="expected 8"):
            read_bps(path)


class TestProposalsFormat:
    def test_roundtrip_with_masks(self, tmp_path):
        canvas = np.zeros((6, 8), dtype=bool)
        canvas[1:4, 2:7] = True
        boxed = np.ones((2, 3), dtype=bool)
        props = [
            BoxProposal(Box(2, 1, 7, 4), 0.875, BinaryMask(canvas)),
            BoxProposal(Box(1, 1, 4, 3), 1 / 3, BinaryMask(boxed)),
            BoxProposal(Box(0, 0, 3, 3), 0.5),
        ]
        path = tmp_path / "props.txt"
        write_proposals(path, props)
        got = read_proposals(path)
        assert len(got) == 3
        for p, q in zip(props, got):
            assert q.box == p.box
            assert q.score == p.score
            assert q.mask_anchor == p.mask_anchor
            if p.mask is None:
                assert q.mask is None
            else:
                assert np.array_equal(q.mask.pixels, p.mask.pixels)

    def test_roundtrip_keeps_every_canvas_mask(self, tmp_path):
        # The first box is off the origin and has the canvas size, so its
        # mask has both the box extent and the canvas shape.
        rng = np.random.default_rng(439)
        props = [
            BoxProposal(Box(2, 1, 8, 5), 0.5, BinaryMask(rng.random((4, 6)) < 0.5)),
            BoxProposal(Box(-1, 2, 2, 4), 0.25, BinaryMask(rng.random((2, 3)) < 0.5)),
            BoxProposal(Box(1, 1, 4, 3), 0.75, BinaryMask(rng.random((4, 6)) < 0.5)),
            BoxProposal(Box(0, 0, 6, 4), 0.125, BinaryMask(rng.random((4, 6)) < 0.5)),
        ]
        path = tmp_path / "props.txt"
        write_proposals(path, props)
        got = read_proposals(path)
        assert len(got) == len(props)
        for p, q in zip(props, got):
            assert np.array_equal(q.canvas_mask(6, 4).pixels, p.canvas_mask(6, 4).pixels)

    def test_mask_files_live_beside_the_list(self, tmp_path):
        props = [BoxProposal(Box(0, 0, 2, 2), 0.5, BinaryMask(np.ones((3, 3), bool)))]
        path = tmp_path / "props.txt"
        write_proposals(path, props)
        assert (tmp_path / "props_masks" / "mask_0000.pbm").exists()
        assert "props_masks/mask_0000.pbm" in path.read_text()

    @pytest.mark.parametrize("name, bad", [("a#b.txt", "#"), ("my props.txt", " "), ("é.txt", "é")])
    def test_unreadable_mask_reference_rejected_before_writing(self, tmp_path, name, bad):
        # the reader cuts a line at '#', splits it at whitespace and
        # takes ASCII only, so these references could not be read back
        props = [
            BoxProposal(Box(0, 0, 2, 2), 0.5),
            BoxProposal(Box(0, 0, 2, 2), 0.25, BinaryMask(np.ones((2, 2), bool))),
        ]
        ref = name.rsplit(".", 1)[0] + "_masks"
        with pytest.raises(ValueError) as err:
            write_proposals(tmp_path / name, props)
        assert str(err.value) == (
            f"mask reference {ref!r} holds {bad!r}, which a proposal list cannot read back"
        )
        assert list(tmp_path.iterdir()) == []
        # a list without masks refers to no file
        write_proposals(tmp_path / name, props[:1])
        assert [p.box for p in read_proposals(tmp_path / name)] == [props[0].box]

    def test_empty_list_writes_empty_file(self, tmp_path):
        path = tmp_path / "none.txt"
        write_proposals(path, [])
        assert path.read_bytes() == b""
        assert read_proposals(path) == []

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "props.txt"
        path.write_text("# header\n\n0 1 1 4 5 0.25  # inline\n")
        got = read_proposals(path)
        assert len(got) == 1
        assert got[0].box == Box(1, 1, 4, 5)
        assert got[0].score == 0.25
        assert got[0].mask is None

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "props.txt"
        path.write_text("0 1 1 4 5 0.25\n1 2 2 5\n")
        with pytest.raises(FormatError, match="line 2"):
            read_proposals(path)

    def test_score_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "props.txt"
        path.write_text("0 1 1 4 5 1.25\n")
        with pytest.raises(FormatError, match="line 1.*score"):
            read_proposals(path)

    def test_missing_mask_file(self, tmp_path):
        # a directory is not a mask file either
        (tmp_path / "p_masks").mkdir()
        path = tmp_path / "props.txt"
        for name in ("nowhere.pbm", "p_masks"):
            path.write_text(f"0 1 1 4 5 0.5 {name}\n")
            with pytest.raises(FormatError) as err:
                read_proposals(path)
            assert str(err.value) == f"{path}: line 1: mask file not found: {name}"

    def test_mask_path_through_a_file_is_not_found(self, tmp_path):
        (tmp_path / "m.pbm").write_text("P1\n1 1\n1\n")
        path = tmp_path / "props.txt"
        path.write_text("0 1 1 4 5 0.5 m.pbm/x.pbm\n")
        with pytest.raises(FormatError) as err:
            read_proposals(path)
        assert str(err.value) == f"{path}: line 1: mask file not found: m.pbm/x.pbm"

    def test_non_ascii_byte_names_line_and_offset(self, tmp_path):
        path = tmp_path / "props.txt"
        path.write_bytes(b"0 1 1 4 5 0.5\r\n\xe9 1 1 4 5 0.5\n")
        with pytest.raises(FormatError) as err:
            read_proposals(path)
        assert str(err.value) == f"non-ASCII byte 0xe9 at line 2, offset 15 (file {path})"

    def test_checks_fields_then_mask_file_then_score(self, tmp_path):
        path = tmp_path / "props.txt"
        bad_mask = tmp_path / "bad.pbm"
        bad_mask.write_text("P1\n2 2\n0 1\n")
        cases = [
            # the mask reader's own error reaches the caller as it is
            ("0 1 1 4 5 0.5 bad.pbm", f"expected 4 pixel digits, found 2 (file {bad_mask})"),
            ("0 1 1 4 5 1.25 nowhere.pbm", f"{path}: line 1: mask file not found: nowhere.pbm"),
            ("0 1 1 4 5 1.25 bad.pbm", f"expected 4 pixel digits, found 2 (file {bad_mask})"),
            ("0 1 x 4 5 1.25 nowhere.pbm", f"{path}: line 1: invalid literal for int() with base 10: 'x'"),
            ("0 1 1 4 5 1.25", f"{path}: line 1: score must lie in [0, 1], got 1.25"),
        ]
        for line, want in cases:
            path.write_text(line + "\n")
            with pytest.raises(FormatError) as err:
                read_proposals(path)
            assert str(err.value) == want, line

    def test_non_integer_coordinate(self, tmp_path):
        path = tmp_path / "props.txt"
        path.write_text("0 1 one 4 5 0.5\n")
        with pytest.raises(FormatError, match="line 1"):
            read_proposals(path)

    def test_reserialization_is_byte_identical(self, tmp_path):
        # same file name in sibling directories so the derived mask
        # directory references match
        props = [
            BoxProposal(Box(0, 0, 2, 2), 1 / 7, BinaryMask(np.ones((2, 2), bool)))
        ]
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = tmp_path / "a" / "props.txt"
        b = tmp_path / "b" / "props.txt"
        write_proposals(a, props)
        write_proposals(b, read_proposals(a))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a" / "props_masks" / "mask_0000.pbm").read_bytes() == (
            tmp_path / "b" / "props_masks" / "mask_0000.pbm"
        ).read_bytes()


class TestCsv:
    def test_exact_output(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(
            path,
            ["n", "ratio", "ok", "name"],
            [[1, 0.5, True, "a"], [2, 1 / 3, False, "b"]],
            comments=["run 1"],
        )
        want = (
            b"# run 1\nn,ratio,ok,name\n"
            b"1,0.5,yes,a\n2,0.3333333333333333,no,b\n"
        )
        assert path.read_bytes() == want

    def test_numpy_scalars_write_like_python_values(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(
            path,
            ["ratio", "ok", "no", "n"],
            [[np.float64(0.1), np.bool_(True), np.bool_(False), np.int64(3)]],
        )
        assert path.read_bytes() == b"ratio,ok,no,n\n0.1,yes,no,3\n"

    @pytest.mark.parametrize(
        "header, rows, cell, bad",
        [
            (["a", "b"], [["x\ny", "p,q"]], "x\ny", "\n"),
            (["a", "b"], [[1, "p,q"]], "p,q", ","),
            (["a", "b"], [[1, 2], ["\r", 3]], "\r", "\r"),
            (["a,b"], [[1]], "a,b", ","),
        ],
        ids=["data-newline", "data-comma", "data-return", "header-comma"],
    )
    def test_cell_that_would_split_rejected_before_writing(self, tmp_path, header, rows, cell, bad):
        # written verbatim, it would read back as extra cells or rows
        with pytest.raises(ValueError) as err:
            write_csv(tmp_path / "t.csv", header, rows)
        assert str(err.value) == f"CSV cell {cell!r} holds {bad!r}, which a cell cannot carry"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "read, text",
    [
        (read_mask, b"P1\n2 1\n0\xff\n"),
        (read_label_map, b"P2\n2 1\n3\n0 \xe9\n"),
        (read_dtm, b"DTM 2 1 5\n0\x80 1\n"),
        (read_bps, b"BPS 1 1 2 0 3 # \xff\n1\n0\n"),
    ],
    ids=["pbm", "pgm", "dtm", "bps"],
)
def test_non_ascii_byte_is_a_format_error(tmp_path, read, text):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    offset = max(text.find(b) for b in (b"\xff", b"\xe9", b"\x80"))
    line = text[:offset].count(b"\n") + 1
    with pytest.raises(FormatError) as err:
        read(path)
    want = f"non-ASCII byte 0x{text[offset]:02x} at line {line}, offset {offset} (file {path})"
    assert str(err.value) == want


@pytest.mark.parametrize(
    "write, comment, bad",
    [
        (lambda p, c: write_mask(p, BinaryMask([[1]]), comments=[c]), "é", "é"),
        (
            lambda p, c: write_proposals(p, [BoxProposal(Box(0, 0, 1, 1), 0.5, BinaryMask([[1]]))], [c]),
            "é",
            "é",
        ),
        (lambda p, c: write_mask(p, BinaryMask([[1]]), comments=[c]), "a\n1 1", "\n"),
        (lambda p, c: write_csv(p, ["a"], [[1]], comments=[c]), "x\ry", "\r"),
    ],
    ids=["mask-non-ascii", "proposals-non-ascii", "mask-line-break", "csv-line-break"],
)
def test_unwritable_comment_rejected_before_writing(tmp_path, write, comment, bad):
    # a comment line that would not encode, or would read back as data
    with pytest.raises(ValueError) as err:
        write(tmp_path / "out.txt", comment)
    assert str(err.value) == f"comment {comment!r} holds {bad!r}, which a comment line cannot carry"
    assert list(tmp_path.iterdir()) == []


def test_writers_use_unix_newlines(tmp_path):
    path = tmp_path / "m.pbm"
    write_mask(path, BinaryMask([[1, 0]]))
    assert b"\r" not in path.read_bytes()
