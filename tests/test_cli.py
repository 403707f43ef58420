import argparse
import shutil
import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dtmask.cli
from dtmask import (
    BinaryMask,
    Box,
    BoxProposal,
    LabelMap,
    encode,
    interior_mask,
    make_uniform_scheme,
    read_bps,
    read_dtm,
    read_mask,
    truncated_edt,
    write_label_map,
    write_mask,
    write_bps,
    write_proposals,
)
import dtmask.codec
from dtmask.cli import _provenance, build_parser, main

from helpers import disk_raster, random_one_hot

GOLDEN = Path(__file__).parent / "golden"


def run(*argv):
    return main([str(a) for a in argv])


def data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def comment_lines(path):
    return [l for l in path.read_text().splitlines() if l.startswith("#")]


@pytest.fixture
def disk_pbm(tmp_path):
    path = tmp_path / "disk.pbm"
    write_mask(path, BinaryMask(disk_raster(32, 32, 16, 16, 10)))
    return path


@pytest.fixture
def disk_pgm(tmp_path):
    labels = disk_raster(32, 32, 16, 16, 10).astype(int)
    path = tmp_path / "disk.pgm"
    write_label_map(path, LabelMap(labels))
    return path


class TestDt:
    def test_matches_library_transform(self, tmp_path, disk_pbm):
        out = tmp_path / "d.dtm"
        assert run("dt", "--in", disk_pbm, "--radius", 13, "--out", out) == 0
        got = read_dtm(out)
        want = truncated_edt(read_mask(disk_pbm), 13)
        assert got.radius_cap == 13
        assert np.array_equal(got.values, want.values)

    def test_provenance_header(self, tmp_path, disk_pbm):
        out = tmp_path / "d.dtm"
        run("dt", "--in", disk_pbm, "--out", out)
        header = comment_lines(out)
        assert header[0].startswith("# dtmask dt v")
        assert header[1] == "# radius=13"

    def test_missing_input(self, tmp_path):
        assert run("dt", "--in", tmp_path / "no.pbm", "--out", tmp_path / "o") == 2

    def test_non_ascii_input_is_a_format_error(self, tmp_path, capsys):
        pbm = tmp_path / "bad.pbm"
        pbm.write_bytes(b"P1\n2 1\n0\xff\n")
        assert run("dt", "--in", pbm, "--out", tmp_path / "o") == 2
        assert f"error: non-ASCII byte 0xff at line 3, offset 8 (file {pbm})" in capsys.readouterr().err


class TestEncodeDecode:
    def test_roundtrip_recovers_interior(self, tmp_path, disk_pbm):
        bps = tmp_path / "d.bps"
        back = tmp_path / "back.pbm"
        assert run("encode", "--in", disk_pbm, "--out", bps) == 0
        assert run("decode", "--in", bps, "--out", back) == 0
        want = interior_mask(read_mask(disk_pbm))
        assert np.array_equal(read_mask(back).pixels, want.pixels)

    def test_literal_contains_conservative(self, tmp_path, disk_pbm):
        bps = tmp_path / "d.bps"
        run("encode", "--in", disk_pbm, "--out", bps)
        cons = tmp_path / "c.pbm"
        lit = tmp_path / "l.pbm"
        run("decode", "--in", bps, "--mode", "conservative", "--out", cons)
        assert run("decode", "--in", bps, "--mode", "literal", "--out", lit) == 0
        c = read_mask(cons).pixels
        l = read_mask(lit).pixels
        assert not (c & ~l).any()

    def test_reruns_are_byte_identical(self, tmp_path, disk_pbm):
        a = tmp_path / "a.bps"
        b = tmp_path / "b.bps"
        run("encode", "--in", disk_pbm, "--out", a)
        run("encode", "--in", disk_pbm, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_transform_capped_at_largest_bin_radius(self, tmp_path, disk_pbm, monkeypatch):
        # radius 13 spreads 5 bins to radii 0 1 4 7 10: the transform
        # needs only r_K = 10, and the stack is the same as at cap 13
        caps = []

        def counting_edt(mask, radius_cap):
            caps.append(radius_cap)
            return truncated_edt(mask, radius_cap)

        monkeypatch.setattr(dtmask.cli, "truncated_edt", counting_edt)
        bps = tmp_path / "d.bps"
        assert run("encode", "--in", disk_pbm, "--bins", 5, "--radius", 13, "--out", bps) == 0
        assert caps == [10]
        want = encode(truncated_edt(read_mask(disk_pbm), 13), make_uniform_scheme(5, 13))
        assert np.array_equal(read_bps(bps).planes, want.planes)

    @pytest.mark.parametrize("radius", [2**32, 10**30])
    def test_radius_beyond_int32(self, tmp_path, disk_pbm, radius):
        # every stored value is far below the radius: the decode is the interior
        bps = tmp_path / "d.bps"
        out = tmp_path / "d.pbm"
        assert run("encode", "--in", disk_pbm, "--radius", radius, "--out", bps) == 0
        assert run("decode", "--in", bps, "--out", out) == 0
        assert np.array_equal(read_mask(out).pixels, interior_mask(read_mask(disk_pbm)).pixels)

    def test_colliding_bins_rejected(self, tmp_path, disk_pbm):
        code = run(
            "encode", "--in", disk_pbm, "--bins", 5, "--radius", 1,
            "--out", tmp_path / "x.bps",
        )
        assert code == 2

    def test_one_hot_counted_once_per_decode(self, tmp_path, disk_pbm, monkeypatch):
        # the reader's count is kept on the stack, and hard_decode reads it
        counts = []

        def counting_one_hot(planes):
            counts.append(planes.shape)
            return one_hot(planes)

        one_hot = dtmask.codec._one_hot
        monkeypatch.setattr(dtmask.codec, "_one_hot", counting_one_hot)
        bps = tmp_path / "d.bps"
        assert run("encode", "--in", disk_pbm, "--out", bps) == 0
        counts.clear()
        assert run("decode", "--in", bps, "--out", tmp_path / "d.pbm") == 0
        assert counts == [(5, 32, 32)]


class TestCommandMemory:
    @pytest.mark.parametrize(
        "command",
        # measured 20.02 B/px for each: the reader's peak, the file
        # (10 B/px at K = 5) and its translate's full-size output
        ["decode", "softdecode"],
    )
    def test_peak_per_pixel(self, tmp_path, command):
        stack = random_one_hot(np.random.default_rng(19), make_uniform_scheme(5, 13), 256, 256)
        bps = tmp_path / "s.bps"
        write_bps(bps, stack, ["dtmask encode", "bins=5 radius=13"])
        assert run(command, "--in", bps, "--out", tmp_path / "warm.pbm") == 0
        tracemalloc.start()
        try:
            code = run(command, "--in", bps, "--out", tmp_path / "out.pbm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak / (256 * 256) < 20.5


class TestSoftDecode:
    def test_clean_input_matches_hard_decode(self, tmp_path, disk_pbm):
        bps = tmp_path / "d.bps"
        run("encode", "--in", disk_pbm, "--out", bps)
        hard = tmp_path / "hard.pbm"
        soft = tmp_path / "soft.pbm"
        run("decode", "--in", bps, "--out", hard)
        assert run("softdecode", "--in", bps, "--out", soft) == 0
        assert np.array_equal(read_mask(soft).pixels, read_mask(hard).pixels)

    def test_seed_determinism(self, tmp_path, disk_pbm):
        # bit flips saturate the decode on small canvases, so seed
        # sensitivity of the flips themselves is a codec-level test;
        # here the seed must be echoed and reruns must be identical
        bps = tmp_path / "d.bps"
        run("encode", "--in", disk_pbm, "--out", bps)
        outs = [tmp_path / f"s{k}.pbm" for k in range(3)]
        run("softdecode", "--in", bps, "--flip-prob", 0.3, "--seed", 7, "--out", outs[0])
        run("softdecode", "--in", bps, "--flip-prob", 0.3, "--seed", 7, "--out", outs[1])
        run("softdecode", "--in", bps, "--flip-prob", 0.3, "--seed", 8, "--out", outs[2])
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert "seed=8" in comment_lines(outs[2])[1]

    def test_corruption_changes_the_decode(self, tmp_path, disk_pbm):
        bps = tmp_path / "d.bps"
        run("encode", "--in", disk_pbm, "--out", bps)
        clean = tmp_path / "clean.pbm"
        noisy = tmp_path / "noisy.pbm"
        run("softdecode", "--in", bps, "--out", clean)
        run("softdecode", "--in", bps, "--flip-prob", 0.3, "--seed", 7, "--out", noisy)
        assert read_mask(clean).pixels.tolist() != read_mask(noisy).pixels.tolist()

    def test_lax_reads_corrupted_stack(self, tmp_path):
        bps = tmp_path / "bad.bps"
        bps.write_text("BPS 2 1 2 0 3\n1 1\n0 1\n")
        out = tmp_path / "o.pbm"
        assert run("softdecode", "--in", bps, "--out", out) == 2
        assert run("softdecode", "--in", bps, "--lax", "--out", out) == 0

    def test_radius_beyond_diagonal_paints_everything(self, tmp_path):
        # a huge bin radius must not size any allocation
        bps = tmp_path / "huge.bps"
        bps.write_text("BPS 2 2 2 0 100000\n0 1\n1 1\n1 0\n0 0\n")
        for command in ("decode", "softdecode"):
            out = tmp_path / f"{command}.pbm"
            assert run(command, "--in", bps, "--out", out) == 0
            assert read_mask(out).pixels.all()

    def test_radius_beyond_a_thin_strip_paints_everything(self, tmp_path):
        # the painter's memory follows the 1 x 20000 raster, not the
        # radius: a square pad of the reach would take gigabytes
        width = 20000
        far = np.zeros(width, dtype=np.uint8)
        far[0] = 1
        rows = [" ".join(map(str, 1 - far)), " ".join(map(str, far))]
        bps = tmp_path / "strip.bps"
        bps.write_text(f"BPS {width} 1 2 0 100000\n" + "\n".join(rows) + "\n")
        for command in ("decode", "softdecode"):
            out = tmp_path / f"{command}.pbm"
            assert run(command, "--in", bps, "--out", out) == 0
            assert read_mask(out).pixels.all()

    def test_bad_threshold(self, tmp_path, disk_pbm):
        bps = tmp_path / "d.bps"
        run("encode", "--in", disk_pbm, "--out", bps)
        code = run(
            "softdecode", "--in", bps, "--threshold", 1.5, "--out", tmp_path / "o.pbm"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--weight", "nan"), ("--weight", "inf"), ("--bias", "-inf")]
    )
    def test_non_finite_weight_or_bias_rejected(self, tmp_path, disk_pbm, capsys, flag, value):
        bps = tmp_path / "d.bps"
        run("encode", "--in", disk_pbm, "--out", bps)
        out = tmp_path / "o.pbm"
        assert run("softdecode", "--in", bps, f"{flag}={value}", "--out", out) == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_weight_rejected(self, tmp_path, disk_pbm, capsys):
        bps = tmp_path / "d.bps"
        run("encode", "--in", disk_pbm, "--out", bps)
        out = tmp_path / "o.pbm"
        code = run(
            "softdecode", "--in", bps, "--weight", "1e308", "--flip-prob", 0.5, "--out", out
        )
        assert code == 2
        assert "error: weight 1e+308 and bias -5.0 can overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_reused_parser_keeps_no_state(self, tmp_path, disk_pbm, monkeypatch):
        bps = tmp_path / "d.bps"
        run("encode", "--in", disk_pbm, "--out", bps)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        outs = [tmp_path / f"s{k}.pbm" for k in range(3)]
        assert run(
            "softdecode", "--in", bps, "--weight", 3.0, "--mode", "literal", "--out", outs[0]
        ) == 0
        assert "weight=3.0" in comment_lines(outs[0])[1]
        assert run("softdecode", "--in", bps, "--seed=-1", "--out", outs[1]) == 2
        assert run("softdecode", "--in", bps, "--out", outs[2]) == 0
        assert comment_lines(outs[2])[1] == (
            "# flip_prob=0.0 seed=0 weight=10.0 bias=-5.0 threshold=0.4 "
            "mode=conservative lax=False"
        )
        assert built == []


class TestBoxsim:
    def test_identity_grid_single_perfect_row(self, tmp_path, disk_pgm):
        out = tmp_path / "sweep.csv"
        code = run(
            "boxsim", "--labels", disk_pgm, "--id", 1,
            "--box", "4,4,28,28", "--out", out,
        )
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == "dx,dy,sx,sy,iou_beyond,iou_inside"
        assert lines[1:] == ["0,0,1.0,1.0,1.0,1.0"]

    def test_shrink_sweep_rows_dominate(self, tmp_path, disk_pgm):
        out = tmp_path / "sweep.csv"
        code = run(
            "boxsim", "--labels", disk_pgm, "--id", 1, "--box", "4,4,28,28",
            "--shrink-range", "0:6:1", "--out", out,
        )
        assert code == 0
        rows = [l.split(",") for l in data_lines(out)[1:]]
        assert len(rows) == 7
        for row in rows:
            assert float(row[4]) >= float(row[5])
        # a box cutting the interior leaves strict slack
        assert float(rows[6][4]) > float(rows[6][5])

    def test_far_shift_recovers_nothing(self, tmp_path, disk_pgm):
        out = tmp_path / "sweep.csv"
        code = run(
            "boxsim", "--labels", disk_pgm, "--id", 1, "--box", "4,4,28,28",
            "--shift-range", "40:40:1", "--out", out,
        )
        assert code == 0
        assert data_lines(out)[1].endswith(",0.0,0.0")

    def test_shift_at_the_coordinate_bound_is_exact(self, tmp_path, disk_pgm):
        out = tmp_path / "sweep.csv"
        code = run(
            "boxsim", "--labels", disk_pgm, "--id", 1, "--box", "4,4,28,28",
            f"--shift-range={-(2**50)}:{-(2**50)}:1", "--out", out,
        )
        assert code == 0
        assert data_lines(out)[1] == f"{-(2**50)},{-(2**50)},1.0,1.0,0.0,0.0"

    def test_shift_beyond_the_coordinate_bound_rejected(self, tmp_path, disk_pgm, capsys):
        # float64 rounded this shift and reported a collapsed box
        shift = 2**60 + 3
        out = tmp_path / "sweep.csv"
        code = run(
            "boxsim", "--labels", disk_pgm, "--id", 1, "--box", "4,4,28,28",
            f"--shift-range=0:{shift}:{shift}", "--out", out,
        )
        assert code == 2
        assert f"shifts must lie in [-2**50, 2**50], got {shift}" in capsys.readouterr().err
        assert not out.exists()

    def test_normalized_window(self, tmp_path, disk_pgm):
        out = tmp_path / "sweep.csv"
        code = run(
            "boxsim", "--labels", disk_pgm, "--id", 1, "--box", "4,4,28,28",
            "--norm", "14x14", "--out", out,
        )
        assert code == 0
        assert "norm=14x14" in comment_lines(out)[1]

    def test_tiny_norm_on_oversized_box_stays_small(self, tmp_path):
        # a 1x1 window on an 864-pixel box paints disks thousands of
        # pixels wide; the decode raster must stay near the canvas size
        labels = tmp_path / "disk64.pgm"
        write_label_map(labels, LabelMap(disk_raster(64, 64, 32, 32, 20).astype(int)))
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            code = run(
                "boxsim", "--labels", labels, "--id", 1, "--box=-400,-400,464,464",
                "--norm", "1x1", "--out", out,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 8 * 2**20
        assert data_lines(out)[1] == "0,0,1.0,1.0,0.279541015625,0.279541015625"

    @pytest.mark.parametrize(
        "norm, row",
        [
            # no 28x28 cell centre lands on the image: nothing is painted
            ("28x28", "0,0,1.0,1.0,0.0,0.0"),
            # cell 14 samples pixel (32, 32), whose disk covers the canvas
            ("29x29", "0,0,1.0,1.0,0.279541015625,0.279541015625"),
        ],
    )
    def test_window_memory_follows_the_window_not_the_box(self, tmp_path, norm, row):
        # cropping the 4064^2 box whole before resizing took a 63.2 MiB peak
        labels = tmp_path / "disk64.pgm"
        write_label_map(labels, LabelMap(disk_raster(64, 64, 32, 32, 20).astype(int)))
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            code = run(
                "boxsim", "--labels", labels, "--id", 1, "--box=-2000,-2000,2064,2064",
                "--norm", norm, "--out", out,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2**20
        assert data_lines(out) == ["dx,dy,sx,sy,iou_beyond,iou_inside", row]

    @pytest.mark.parametrize("radius", [2**32, 10**30])
    @pytest.mark.parametrize("norm", ["native", "28x28"])
    def test_radius_beyond_int32(self, tmp_path, disk_pgm, radius, norm):
        out = tmp_path / "sweep.csv"
        code = run(
            "boxsim", "--labels", disk_pgm, "--id", 1, "--box", "4,4,28,28",
            "--radius", radius, "--norm", norm, "--out", out,
        )
        assert code == 0
        assert f"radius={radius}" in comment_lines(out)[1]

    def test_unknown_instance(self, tmp_path, disk_pgm):
        code = run(
            "boxsim", "--labels", disk_pgm, "--id", 9,
            "--box", "4,4,28,28", "--out", tmp_path / "o.csv",
        )
        assert code == 2

    def test_bad_box_string(self, tmp_path, disk_pgm):
        code = run(
            "boxsim", "--labels", disk_pgm, "--id", 1,
            "--box", "4,4,28", "--out", tmp_path / "o.csv",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "sweep, cells",
        [
            (["--shift-range=-100000000:100000000:1"], 200000001**2),
            (["--shift-range=0:10000000000000000000000:1"], (10**22 + 1) ** 2),
            (["--shrink-range=0:1000:1", "--shift-range=0:9:1"], 1001 * 100),
        ],
    )
    def test_oversized_sweep_rejected_before_allocation(
        self, tmp_path, disk_pgm, capsys, sweep, cells
    ):
        out = tmp_path / "o.csv"
        tracemalloc.start()
        try:
            code = run(
                "boxsim", "--labels", disk_pgm, "--id", 1,
                "--box", "4,4,28,28", *sweep, "--out", out,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        assert f"sweep of {cells} cells exceeds the limit of 100000" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_at_the_limit_is_accepted(self, monkeypatch, tmp_path, disk_pgm):
        # 2 x 3^2 = 18 cells; a limit of 18 must admit them
        monkeypatch.setattr("dtmask.cli.MAX_SWEEP_CELLS", 18)
        out = tmp_path / "o.csv"
        code = run(
            "boxsim", "--labels", disk_pgm, "--id", 1, "--box", "4,4,28,28",
            "--shrink-range", "0:1:1", "--shift-range=-2:2:2", "--out", out,
        )
        assert code == 0
        assert len(data_lines(out)) == 19


class TestCellLimit:
    @pytest.mark.parametrize(
        "command, flags, what, cells",
        [
            ("encode", ["--bins", 10**6, "--radius", 10**6], "bit-plane stack", 10**6 * 64**2),
            ("boxsim", ["--box", "0,0,1000000,1000000"], "box", 10**12),
            ("boxsim", ["--box", "0,0,1000000,1000000", "--norm", "28x28"], "box", 10**12),
            (
                "boxsim",
                ["--box", "4,4,28,28", "--norm", "100000x100000"],
                "window stack",
                5 * 10**10,
            ),
            ("bench", ["--sizes", "8,100000"], "bench mask", 10**10),
        ],
    )
    def test_oversized_input_rejected_before_allocation(
        self, tmp_path, disk_pgm, capsys, command, flags, what, cells
    ):
        mask = tmp_path / "m.pbm"
        write_mask(mask, BinaryMask(np.ones((64, 64), dtype=bool)))
        inputs = {
            "encode": ["--in", mask],
            "boxsim": ["--labels", disk_pgm, "--id", 1],
            "bench": [],
        }
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = run(command, *inputs[command], *flags, "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        assert f"{what} of {cells} cells exceeds the limit of {2**26}" in capsys.readouterr().err
        assert not out.exists()

    def test_cells_at_the_limit_are_accepted(self, monkeypatch, tmp_path, disk_pbm):
        # 5 bins x 32 x 32 = 5120 cells
        monkeypatch.setattr("dtmask.cli.MAX_CELLS", 5120)
        assert run("encode", "--in", disk_pbm, "--out", tmp_path / "a.bps") == 0
        monkeypatch.setattr("dtmask.cli.MAX_CELLS", 5119)
        assert run("encode", "--in", disk_pbm, "--out", tmp_path / "b.bps") == 2


def _eval_fixture(tmp_path):
    labels = np.zeros((24, 24), dtype=int)
    labels[2:10, 2:10] = 1
    labels[12:22, 12:22] = 2
    gt = tmp_path / "gt.pgm"
    write_label_map(gt, LabelMap(labels))
    props = []
    for box, score in ((Box(2, 2, 10, 10), 0.9), (Box(12, 12, 22, 22), 0.8)):
        m = np.zeros((24, 24), dtype=bool)
        m[box.y0 : box.y1, box.x0 : box.x1] = True
        props.append(BoxProposal(box, score, BinaryMask(m)))
    plist = tmp_path / "props.txt"
    write_proposals(plist, props)
    return gt, plist


class TestEval:
    def test_perfect_proposals_score_one(self, tmp_path):
        gt, plist = _eval_fixture(tmp_path)
        out = tmp_path / "report.csv"
        assert run("eval", "--proposals", plist, "--gt", gt, "--out", out) == 0
        lines = data_lines(out)
        assert lines[0] == "section,key,value"
        assert "count,ground_truth,2" in lines
        assert "count,proposals,2" in lines
        for l in lines:
            if l.startswith(("recall,", "ar,", "ap,")):
                assert l.endswith(",1.0")

    def test_defaults_echoed_in_header(self, tmp_path):
        gt, plist = _eval_fixture(tmp_path)
        out = tmp_path / "report.csv"
        run("eval", "--proposals", plist, "--gt", gt, "--out", out)
        assert comment_lines(out)[1] == (
            "# ar_n=10,100,1000 ap_iou=0.5,0.7 box_nms=0.7 top=300 mask_nms=0.5"
        )

    def test_nms_collapses_duplicates(self, tmp_path):
        gt, _ = _eval_fixture(tmp_path)
        m = np.zeros((24, 24), dtype=bool)
        m[2:10, 2:10] = True
        props = [BoxProposal(Box(2, 2, 10, 10), s, BinaryMask(m)) for s in (0.9, 0.8, 0.7)]
        plist = tmp_path / "dups.txt"
        write_proposals(plist, props)
        out = tmp_path / "report.csv"
        assert run("eval", "--proposals", plist, "--gt", gt, "--out", out) == 0
        assert "count,proposals,1" in data_lines(out)

        raw = tmp_path / "raw.csv"
        assert run(
            "eval", "--proposals", plist, "--gt", gt,
            "--box-nms", "none", "--nms", "none", "--out", raw,
        ) == 0
        assert "count,proposals,3" in data_lines(raw)

    def test_top_budget_cuts(self, tmp_path):
        gt, plist = _eval_fixture(tmp_path)
        out = tmp_path / "report.csv"
        assert run(
            "eval", "--proposals", plist, "--gt", gt, "--top", 1, "--out", out
        ) == 0
        lines = data_lines(out)
        assert "count,proposals,1" in lines
        assert "recall,0.5,0.5" in lines

    def test_empty_ground_truth(self, tmp_path):
        gt = tmp_path / "empty.pgm"
        write_label_map(gt, LabelMap(np.zeros((8, 8), dtype=int)))
        _, plist = _eval_fixture(tmp_path)
        assert run(
            "eval", "--proposals", plist, "--gt", gt, "--out", tmp_path / "o.csv"
        ) == 2


    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--ar-n", "10,10", "--ap-iou", "0.5,0.50"], "AR budget 10 is repeated"),
            (["--ap-iou", "0.5,0.50"], "AP IoU threshold 0.5 is repeated"),
        ],
    )
    def test_repeated_values_rejected(self, tmp_path, capsys, flags, message):
        # the report has one row per budget and threshold, so a repeat
        # would silently drop a row
        out = tmp_path / "o.csv"
        code = run(
            "eval", "--proposals", GOLDEN / "proposals.txt", "--gt", GOLDEN / "scene.pgm",
            *flags, "--out", out,
        )
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["99999999999999999999", "4294967297"])
    def test_label_beyond_int32_is_a_format_error(self, tmp_path, capsys, value):
        _, plist = _eval_fixture(tmp_path)
        gt = tmp_path / "big.pgm"
        gt.write_text(f"P2 2 1\n{value}\n1 {value}\n")
        code = run("eval", "--proposals", plist, "--gt", gt, "--out", tmp_path / "o.csv")
        assert code == 2
        assert f"error: label value {value} exceeds the int32 limit" in capsys.readouterr().err


class TestBench:
    def test_small_run_matches_oracle(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            "bench", "--sizes", "8,16", "--reps", 1,
            "--oracle-limit", 16, "--out", out,
        )
        assert code == 0
        lines = data_lines(out)
        assert lines[0] == (
            "size,reps,pair_count,fast_median_s,oracle_s,"
            "oracle_extrapolated_s,speedup_vs_extrapolated,oracle_match"
        )
        for row in lines[1:]:
            assert row.endswith(",yes")

    def test_sizes_above_oracle_limit_extrapolate(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            "bench", "--sizes", "8,24", "--reps", 1,
            "--oracle-limit", 8, "--out", out,
        )
        assert code == 0
        big = data_lines(out)[2].split(",")
        assert big[0] == "24"
        assert big[4] == ""  # no direct oracle timing
        assert big[5] != ""  # but an extrapolated one
        assert big[7] == ""

    @pytest.mark.parametrize("sizes", ["24,16", "16,24"])
    def test_extrapolation_uses_the_largest_oracle_run(self, tmp_path, sizes):
        out = tmp_path / "bench.csv"
        code = run(
            "bench", "--sizes", sizes, "--reps", 1, "--oracle-limit", 24, "--out", out,
        )
        assert code == 0
        rows = {cells[0]: cells for cells in (l.split(",") for l in data_lines(out)[1:])}
        assert float(rows["24"][5]) == pytest.approx(float(rows["24"][4]), rel=1e-9)

    def test_zero_reps_rejected(self, tmp_path):
        assert run("bench", "--reps", 0, "--sizes", "8", "--out", tmp_path / "o") == 2


class TestExitCodes:
    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_unknown_command(self):
        assert run("frobnicate") == 2

    def test_unknown_flag(self, tmp_path):
        assert run("dt", "--in", "x", "--out", "y", "--wat") == 2

    def test_bad_range_step(self, tmp_path, disk_pgm):
        code = run(
            "boxsim", "--labels", disk_pgm, "--id", 1, "--box", "4,4,28,28",
            "--shrink-range", "0:4:0", "--out", tmp_path / "o.csv",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["boxsim", "--shift-range", "0:1:0"], "range step must be >= 1"),
            (["boxsim", "--box", "0,0,4"], "box must be x0,y0,x1,y1"),
            (["boxsim", "--box", "5,5,1,1"], "degenerate box"),
            (["eval", "--ap-iou", "0.5,x"], "could not convert string to float"),
            (["eval", "--nms", "2"], "IoU threshold must lie in [0, 1]"),
            (["eval", "--ap-iou=1.5"], "IoU threshold must lie in [0, 1], got 1.5"),
            (["eval", "--ap-iou=-1"], "IoU threshold must lie in [0, 1], got -1.0"),
            (["eval", "--ap-iou=0.5,nan"], "IoU threshold must lie in [0, 1], got nan"),
            (
                ["boxsim", "--box=100000000000000000000,0,100000000000000100000,1"],
                "box coordinates must lie in [-2**50, 2**50], got 100000000000000000000",
            ),
            (
                ["boxsim", "--box=0,-1125899906842625,4,4"],
                "box coordinates must lie in [-2**50, 2**50], got -1125899906842625",
            ),
            (["eval", "--top=-5"], "count must be >= 0, got -5"),
            (["bench", "--sizes="], "list must not be empty"),
            (["eval", "--ar-n="], "list must not be empty"),
            (["eval", "--ap-iou="], "list must not be empty"),
            (["eval", "--ar-n=10,,100"], "empty item in list '10,,100'"),
            (["eval", "--ap-iou=0.5,"], "empty item in list '0.5,'"),
            (["bench", "--sizes=,16"], "empty item in list ',16'"),
            (["softdecode", "--seed=-1"], "argument --seed: count must be >= 0, got -1"),
            (["bench", "--sizes=0"], "sizes must be >= 1, got 0"),
            (["bench", "--sizes=16,-3"], "sizes must be >= 1, got -3"),
            (["bench", "--sizes=-3", "--seed=10"], "sizes must be >= 1, got -3"),
            (["bench", "--seed=-8", "--sizes", "8,16"], "argument --seed: count must be >= 0, got -8"),
            (["bench", "--seed=-50"], "argument --seed: count must be >= 0, got -50"),
        ],
    )
    def test_argument_errors_name_the_reason(self, tmp_path, capsys, argv, message):
        inputs = {
            "boxsim": ["--labels", "l.pgm", "--id", 1, "--box", "4,4,28,28"],
            "eval": ["--proposals", "p.txt", "--gt", "g.pgm"],
            "softdecode": ["--in", "s.bps"],
            "bench": [],
        }
        command, *flags = argv
        out = tmp_path / "o.csv"
        code = run(command, *inputs[command], *flags, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "invalid" not in err
        assert not out.exists()


# Flags that name files; every other flag is a setting.
PATH_FLAGS = {"--in", "--out", "--labels", "--proposals", "--gt"}


class TestHeaders:
    @pytest.fixture
    def inputs(self, tmp_path, disk_pbm, disk_pgm):
        bps = tmp_path / "disk.bps"
        assert run("encode", "--in", disk_pbm, "--out", bps) == 0
        gt, plist = _eval_fixture(tmp_path)
        return {
            "dt": ["--in", disk_pbm],
            "encode": ["--in", disk_pbm],
            "decode": ["--in", bps],
            "softdecode": ["--in", bps],
            "boxsim": ["--labels", disk_pgm, "--id", 1, "--box", "4,4,28,28"],
            "eval": ["--proposals", plist, "--gt", gt],
            "bench": [],
        }

    @pytest.mark.parametrize(
        "command, flags, settings",
        [
            ("dt", [], "radius=13"),
            ("dt", ["--radius", 4], "radius=4"),
            ("encode", [], "bins=5 radius=13"),
            ("encode", ["--bins", 3], "bins=3 radius=13"),
            ("decode", [], "mode=conservative"),
            ("decode", ["--mode", "literal"], "mode=literal"),
            (
                "softdecode",
                [],
                "flip_prob=0.0 seed=0 weight=10.0 bias=-5.0 threshold=0.4 "
                "mode=conservative lax=False",
            ),
            (
                "softdecode",
                ["--lax"],
                "flip_prob=0.0 seed=0 weight=10.0 bias=-5.0 threshold=0.4 "
                "mode=conservative lax=True",
            ),
            (
                "boxsim",
                [],
                "id=1 box=4,4,28,28 shrink_range=0:0:1 shift_range=0:0:1 "
                "bins=5 radius=13 norm=native mode=conservative",
            ),
            (
                "boxsim",
                ["--shrink-range", "0:5:2", "--shift-range=-2:2:2"],
                "id=1 box=4,4,28,28 shrink_range=0:5:2 shift_range=-2:2:2 "
                "bins=5 radius=13 norm=native mode=conservative",
            ),
            ("eval", [], "ar_n=10,100,1000 ap_iou=0.5,0.7 box_nms=0.7 top=300 mask_nms=0.5"),
            (
                "eval",
                ["--box-nms", "none"],
                "ar_n=10,100,1000 ap_iou=0.5,0.7 box_nms=none top=300 mask_nms=0.5",
            ),
            ("bench", [], "sizes=128,256,512 reps=3 radius=13 seed=0 oracle_limit=128"),
            (
                "bench",
                ["--sizes", "8,16"],
                "sizes=8,16 reps=3 radius=13 seed=0 oracle_limit=128",
            ),
        ],
    )
    def test_second_header_line(self, tmp_path, inputs, command, flags, settings):
        out = tmp_path / "out"
        assert run(command, *inputs[command], *flags, "--out", out) == 0
        assert comment_lines(out)[1] == f"# {settings}"

    def test_every_setting_flag_is_echoed_in_flag_order(self, inputs):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(commands.choices) == sorted(inputs)
        for command, sub in commands.choices.items():
            flags = [a.option_strings[-1] for a in sub._actions if a.dest != "help"]
            keys = [f[2:].replace("-", "_") for f in flags if f not in PATH_FLAGS]
            keys = ["mask_nms" if k == "nms" else k for k in keys]
            args = parser.parse_args([command, *map(str, inputs[command]), "--out", "o"])
            echoed = [pair.split("=")[0] for pair in _provenance(args)[1].split(" ")]
            assert echoed == keys, command


def test_console_script_is_installed():
    exe = shutil.which("dtmask")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "dt" in proc.stdout
