"""Acceptance gate: one test per release criterion.

Each test prints a single verdict line (visible with -s or on failure)
and enforces the stated tolerance and runtime budget.  Numeric bounds
marked as regressions were frozen from the first measurement on the
reference fixture and guard against behavioral drift, not against the
hardware.
"""

import time

import numpy as np
import pytest

from dtmask import (
    BinaryMask,
    Box,
    BoxProposal,
    DEFAULT_BOX_NMS_IOU,
    DEFAULT_MASK_NMS_IOU,
    DEFAULT_PROPOSAL_CAP,
    LabelMap,
    average_precision,
    average_recall,
    boundary_set,
    box_iou,
    brute_force_edt,
    corrupt,
    encode,
    hard_decode,
    interior_mask,
    make_uniform_scheme,
    mask_iou,
    nms,
    recall_curve,
    robustness_sweep,
    shrink_perturbation,
    soft_decode,
    truncated_edt,
    write_label_map,
    write_mask,
    write_proposals,
)
from dtmask.cli import build_parser, main

from helpers import (
    disk_mask,
    hard_decode_oracle,
    l_mask,
    random_mask,
    random_one_hot,
    rasterize_box,
    rect_mask,
    ring_mask,
    tight_box,
)


def _verdict(num, summary, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} PASS: {summary}{tail}")


def test_criterion_01_edt_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(211)
    masks = [random_mask(rng, max_size=96) for _ in range(500)]
    for size in np.linspace(97, 128, 12).astype(int):
        density = float(rng.choice([0.2, 0.5, 0.8]))
        masks.append(BinaryMask(rng.random((int(size), int(size))) < density))
    checked = 0
    for mask in masks:
        for cap in (1, 5, 13, 20):
            fast = truncated_edt(mask, cap)
            slow = brute_force_edt(mask, cap)
            assert np.array_equal(fast.values, slow.values), (
                f"transforms disagree on a {mask.height}x{mask.width} mask at R={cap}"
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f} s"
    _verdict(
        1,
        "fast transform is bit-identical to the brute-force oracle",
        f"{len(masks)} masks x 4 caps, {checked} comparisons, {elapsed:.1f} s",
    )


def test_criterion_02_decoder_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(223)
    for _ in range(200):
        bins = int(rng.choice([2, 3, 5]))
        cap = int(rng.choice([1, 5, 13] if bins == 2 else [5, 13]))
        stack = random_one_hot(rng, make_uniform_scheme(bins, cap), max_size=48)
        for mode in ("conservative", "literal"):
            fast = hard_decode(stack, mode)
            slow = hard_decode_oracle(stack, mode)
            assert np.array_equal(fast.pixels, slow.pixels), (
                f"decoders disagree: bins={bins} cap={cap} mode={mode}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f} s"
    _verdict(
        2,
        "dilation decode equals the per-pixel oracle",
        f"200 stacks, both modes, {elapsed:.1f} s",
    )


ROUNDTRIP_COMBOS = ((2, 1), (2, 5), (2, 13), (3, 5), (3, 13), (5, 5), (5, 13))
COLLIDING_COMBOS = ((3, 1), (5, 1))


@pytest.fixture(scope="module")
def roundtrip_corpus():
    rng = np.random.default_rng(227)
    return [random_mask(rng, max_size=64) for _ in range(200)]


def test_criterion_03_exact_interior_roundtrip(roundtrip_corpus):
    start = time.perf_counter()
    # uniform tables cannot host more bins than the radius range allows,
    # so the two colliding grid points must fail loudly instead
    for bins, cap in COLLIDING_COMBOS:
        with pytest.raises(ValueError, match="collide"):
            make_uniform_scheme(bins, cap)
    for mask in roundtrip_corpus:
        want = interior_mask(mask).pixels
        for cap in (1, 5, 13):
            dmap = truncated_edt(mask, cap)
            outputs = []
            for bins in (2, 3, 5):
                if (bins, cap) in COLLIDING_COMBOS:
                    continue
                stack = encode(dmap, make_uniform_scheme(bins, cap))
                out = hard_decode(stack, "conservative").pixels
                assert np.array_equal(out, want), (
                    f"roundtrip broke interior recovery at K={bins} R={cap}"
                )
                outputs.append(out)
            for other in outputs[1:]:
                assert np.array_equal(outputs[0], other)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f} s"
    _verdict(
        3,
        "conservative roundtrip recovers exactly the interior set for every bin count",
        f"200 masks x {len(ROUNDTRIP_COMBOS)} valid (K, R) pairs, {elapsed:.1f} s",
    )


def test_criterion_04_no_boundary_leakage(roundtrip_corpus):
    for mask in roundtrip_corpus:
        q = boundary_set(mask).pixels
        for bins, cap in ROUNDTRIP_COMBOS:
            stack = encode(truncated_edt(mask, cap), make_uniform_scheme(bins, cap))
            out = hard_decode(stack, "conservative").pixels
            assert not (out & q).any(), (
                f"decode touched the source set at K={bins} R={cap}"
            )
    _verdict(
        4,
        "conservative decode never touches the source set",
        f"200 masks x {len(ROUNDTRIP_COMBOS)} (K, R) pairs",
    )


def _dominance_fixtures():
    return [
        disk_mask(40, 40, 20, 20, 12),
        disk_mask(48, 48, 24, 24, 16),
        disk_mask(44, 44, 22, 22, 14),
        ring_mask(48, 48, 24, 24, 18, 4),
        ring_mask(44, 44, 20, 22, 16, 2),
        rect_mask(44, 44, 8, 8, 30, 36),
        rect_mask(36, 36, 10, 10, 24, 24),
        rect_mask(44, 44, 6, 14, 38, 30),
        l_mask(48, 48, 6, 6, 30, 14),
        l_mask(44, 44, 4, 4, 32, 16),
    ]


def test_criterion_05_beyond_box_dominance():
    start = time.perf_counter()
    scheme = make_uniform_scheme(13, 13)
    strict_records = 0
    total = 0
    for mask in _dominance_fixtures():
        box = tight_box(mask)
        interior = interior_mask(mask).pixels
        h, w = mask.pixels.shape
        perts = [shrink_perturbation(box, p) for p in range(1, 7)]
        records = robustness_sweep(mask, box, perts, scheme=scheme)
        for p, rec in zip(range(1, 7), records):
            total += 1
            inset = Box(box.x0 + p, box.y0 + p, box.x1 - p, box.y1 - p)
            cuts = (interior & ~rasterize_box(inset, w, h).pixels).any()
            assert rec.iou_beyond >= rec.iou_inside, (
                f"dominance broke at shrink {p} on a {h}x{w} fixture"
            )
            if cuts:
                assert rec.iou_beyond > rec.iou_inside, (
                    f"no strict recovery at shrink {p} on a {h}x{w} fixture"
                )
                strict_records += 1
    assert strict_records >= 20, "fixture suite exercises too few cutting boxes"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f} s"
    _verdict(
        5,
        "beyond-box IoU dominates clipped IoU, strictly when the box cuts the interior",
        f"10 shapes x 6 shrinks, {strict_records}/{total} strict, {elapsed:.1f} s",
    )


def test_criterion_06_soft_hard_agreement():
    rng = np.random.default_rng(229)
    for _ in range(200):
        bins = int(rng.choice([2, 3, 5]))
        cap = int(rng.choice([1, 5, 13] if bins == 2 else [5, 13]))
        stack = random_one_hot(rng, make_uniform_scheme(bins, cap), max_size=32)
        clean = corrupt(stack, 0.0, 0)
        for mode in ("conservative", "literal"):
            assert np.array_equal(
                soft_decode(clean, mode=mode).pixels,
                hard_decode(stack, mode).pixels,
            ), f"soft decode diverged: bins={bins} cap={cap} mode={mode}"
    _verdict(6, "default soft decode reproduces the hard decode on clean stacks",
             "200 stacks, both modes")


def test_criterion_07_noise_robustness_regression():
    # regression bound frozen from the first measurement on this exact
    # fixture (mean 0.2629); the corrupted decode saturates most of the
    # canvas, so the achievable mean is far below 1 by construction
    start = time.perf_counter()
    yy, xx = np.mgrid[0:28, 0:28]
    disk = BinaryMask((yy - 14) ** 2 + (xx - 14) ** 2 <= 81)
    stack = encode(truncated_edt(disk, 13), make_uniform_scheme(5, 13))
    clean = hard_decode(stack)
    ious = [
        mask_iou(soft_decode(corrupt(stack, 0.02, seed)), clean)
        for seed in range(100)
    ]
    mean = sum(ious) / len(ious)
    assert mean >= 0.26, f"mean corrupted-vs-clean IoU regressed to {mean:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f} s"
    _verdict(
        7,
        "soft decode under 2% bit flips stays above the frozen regression bound",
        f"mean IoU {mean:.4f} >= 0.26 over 100 seeds, {elapsed:.1f} s",
    )


def _bar(width, x0, x1):
    px = np.zeros((1, width), dtype=bool)
    px[0, x0:x1] = True
    return BinaryMask(px)


def _bar_proposal(width, x0, x1, score):
    return BoxProposal(Box(x0, 0, x1, 1), score, _bar(width, x0, x1))


def test_criterion_08_metric_fixtures():
    # AR: one proposal at IoU 0.6 clears exactly three of ten thresholds
    gts = [_bar(12, 0, 8)]
    ar = average_recall([_bar_proposal(12, 2, 10, 0.9)], gts, 10)
    assert ar == 0.3, f"AR fixture returned {ar!r}"

    # AP: a false positive ranked above the true positive halves the area
    props = [_bar_proposal(12, 9, 12, 0.9), _bar_proposal(12, 0, 8, 0.5)]
    ap = average_precision(props, gts, 0.5)
    assert ap == 0.5, f"AP fixture returned {ap!r}"

    rng = np.random.default_rng(233)
    for _ in range(50):
        width = int(rng.integers(8, 30))
        gts = [
            _bar(width, int(x0), int(rng.integers(x0 + 1, width + 1)))
            for x0 in rng.integers(0, width - 1, size=int(rng.integers(1, 4)))
        ]
        props = [
            _bar_proposal(
                width, int(x0), int(rng.integers(x0 + 1, width + 1)), float(s)
            )
            for x0, s in zip(
                rng.integers(0, width - 1, size=4), rng.random(4)
            )
        ]
        values = [r for _, r in recall_curve(props, gts)]
        assert all(b <= a for a, b in zip(values, values[1:])), (
            "recall curve increased along the threshold grid"
        )
    _verdict(8, "AR fixture = 0.3, AP fixture = 0.5, recall curves monotone",
             "50 random curve fixtures")


def test_criterion_09_nms_conformance(tmp_path):
    # hand enumeration: duplicates collapse, disjoint survive, exact
    # threshold overlap survives
    dup = [_bar_proposal(10, 2, 8, s) for s in (0.7, 0.9, 0.8)]
    assert nms(dup, 0.5) == [dup[1]]
    spread = [
        _bar_proposal(20, 0, 4, 0.3),
        _bar_proposal(20, 6, 10, 0.9),
        _bar_proposal(20, 12, 16, 0.6),
    ]
    assert nms(spread, 0.5) == [spread[1], spread[2], spread[0]]
    edge = [_bar_proposal(10, 0, 4, 0.9), _bar_proposal(10, 0, 2, 0.8)]
    assert box_iou(edge[0].box, edge[1].box) == 0.5
    assert nms(edge, 0.5) == edge

    assert (DEFAULT_BOX_NMS_IOU, DEFAULT_MASK_NMS_IOU, DEFAULT_PROPOSAL_CAP) == (
        0.7,
        0.5,
        300,
    )
    args = build_parser().parse_args(
        ["eval", "--proposals", "p", "--gt", "g", "--out", "o"]
    )
    assert (args.box_nms, args.nms, args.top) == (0.7, 0.5, 300)

    labels = np.zeros((16, 16), dtype=int)
    labels[2:10, 2:10] = 1
    gt = tmp_path / "gt.pgm"
    write_label_map(gt, LabelMap(labels))
    m = np.zeros((16, 16), dtype=bool)
    m[2:10, 2:10] = True
    plist = tmp_path / "props.txt"
    write_proposals(plist, [BoxProposal(Box(2, 2, 10, 10), 0.9, BinaryMask(m))])
    report = tmp_path / "report.csv"
    assert main(
        ["eval", "--proposals", str(plist), "--gt", str(gt), "--out", str(report)]
    ) == 0
    header = [l for l in report.read_text().splitlines() if l.startswith("#")]
    assert header[1] == (
        "# ar_n=10,100,1000 ap_iou=0.5,0.7 box_nms=0.7 top=300 mask_nms=0.5"
    )
    _verdict(9, "NMS matches hand enumeration and the defaults reach provenance",
             "box 0.7 / mask 0.5 / top 300")


def test_criterion_10_performance():
    rng = np.random.default_rng(239)
    big = BinaryMask(rng.random((512, 512)) < 0.5)
    small = BinaryMask(rng.random((128, 128)) < 0.5)

    fast_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        truncated_edt(big, 13)
        fast_times.append(time.perf_counter() - t0)
    fast = sorted(fast_times)[1]

    t0 = time.perf_counter()
    oracle_small = brute_force_edt(small, 13)
    oracle_seconds = time.perf_counter() - t0
    assert np.array_equal(oracle_small.values, truncated_edt(small, 13).values)

    def pair_count(mask):
        return mask.pixels.size * int(boundary_set(mask).pixels.sum())

    rate = oracle_seconds / pair_count(small)
    extrapolated = rate * pair_count(big)
    speedup = extrapolated / fast
    assert fast < 1.0, f"fast transform took {fast:.3f} s on 512x512"
    assert speedup >= 10.0, f"speedup only {speedup:.1f}x over extrapolated oracle"
    _verdict(
        10,
        "512x512 transform under one second and >= 10x the extrapolated oracle",
        f"fast {fast * 1000:.1f} ms, speedup {speedup:.0f}x",
    )


def _run_twice(tmp_path, name, argv_for):
    out_a = tmp_path / f"{name}_a.out"
    out_b = tmp_path / f"{name}_b.out"
    assert main(argv_for(str(out_a))) == 0, f"{name} (first run) failed"
    assert main(argv_for(str(out_b))) == 0, f"{name} (second run) failed"
    return out_a.read_bytes(), out_b.read_bytes()


def test_criterion_11_cli_determinism(tmp_path):
    mask_file = tmp_path / "disk.pbm"
    yy, xx = np.mgrid[0:32, 0:32]
    disk = BinaryMask((yy - 16) ** 2 + (xx - 16) ** 2 <= 100)
    write_mask(mask_file, disk)
    labels_file = tmp_path / "disk.pgm"
    write_label_map(labels_file, LabelMap(disk.pixels.astype(int)))
    bps_file = tmp_path / "disk.bps"
    assert main(["encode", "--in", str(mask_file), "--out", str(bps_file)]) == 0
    m = np.zeros((32, 32), dtype=bool)
    m[6:26, 6:26] = True
    plist = tmp_path / "props.txt"
    write_proposals(plist, [BoxProposal(Box(6, 6, 26, 26), 0.9, BinaryMask(m))])

    runs = {
        "dt": lambda out: ["dt", "--in", str(mask_file), "--out", out],
        "encode": lambda out: ["encode", "--in", str(mask_file), "--out", out],
        "decode": lambda out: ["decode", "--in", str(bps_file), "--out", out],
        "softdecode": lambda out: [
            "softdecode", "--in", str(bps_file),
            "--flip-prob", "0.1", "--seed", "5", "--out", out,
        ],
        "boxsim": lambda out: [
            "boxsim", "--labels", str(labels_file), "--id", "1",
            "--box", "4,4,28,28", "--shrink-range", "0:3:1", "--out", out,
        ],
        "eval": lambda out: [
            "eval", "--proposals", str(plist), "--gt", str(labels_file),
            "--out", out,
        ],
    }
    for name, argv_for in runs.items():
        a, b = _run_twice(tmp_path, name, argv_for)
        assert a == b, f"{name} output changed between identical runs"

    # bench rows carry wall-clock timings; determinism applies to every
    # non-timing column
    a, b = _run_twice(
        tmp_path,
        "bench",
        lambda out: [
            "bench", "--sizes", "16,32", "--reps", "2",
            "--oracle-limit", "32", "--out", out,
        ],
    )

    def stable_part(raw):
        lines = raw.decode("ascii").splitlines()
        keep = []
        for line in lines:
            if line.startswith("#") or line.startswith("size,"):
                keep.append(line)
                continue
            cells = line.split(",")
            keep.append(",".join(cells[:3] + cells[7:]))
        return keep

    assert stable_part(a) == stable_part(b), "bench non-timing columns changed"
    _verdict(11, "identical flags and seeds reproduce output files byte for byte",
             "6 commands byte-identical, bench modulo timing columns")
