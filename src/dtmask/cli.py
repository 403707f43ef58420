"""Command-line front end: transforms, codecs, sweeps, eval, benchmarks.

Every command is deterministic given its flags and seed, and every
output file starts with comment lines echoing the effective run
configuration.  Exit codes: 0 success, 2 input or usage error, 1
internal failure.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from . import __version__
from .grid import BinaryMask, Box, extract_instance
from .edt import boundary_set, brute_force_edt, truncated_edt
from .codec import (
    DEFAULT_SOFT_BIAS,
    DEFAULT_SOFT_THRESHOLD,
    DEFAULT_SOFT_WEIGHT,
    DECODE_MODES,
    SoftDecodeParams,
    corrupt,
    encode,
    hard_decode,
    make_uniform_scheme,
    soft_decode,
)
from .boxsim import Perturbation, robustness_sweep, shrink_perturbation
from .metrics import (
    DEFAULT_BOX_NMS_IOU,
    DEFAULT_MASK_NMS_IOU,
    DEFAULT_PROPOSAL_CAP,
    evaluate,
    nms,
    top_scoring,
)
from .io import (
    FormatError,
    read_bps,
    read_label_map,
    read_mask,
    read_proposals,
    write_bps,
    write_csv,
    write_dtm,
    write_mask,
)

# Largest boxsim sweep, in cells: checked before any perturbation is built.
MAX_SWEEP_CELLS = 100_000
# Largest raster or bit-plane stack that encode, boxsim and bench may
# build, in cells: checked before it is allocated.
MAX_CELLS = 2**26


def _check_cells(what: str, cells: int, limit: int) -> None:
    if cells > limit:
        raise ValueError(f"{what} of {cells} cells exceeds the limit of {limit}")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return "none"
    return str(v)


def _provenance(command: str, **settings) -> list[str]:
    """Header lines echoing the effective settings of one invocation."""
    pairs = " ".join(f"{k}={_fmt(v)}" for k, v in settings.items())
    return [f"dtmask {command} v{__version__}", pairs]


def _arg(parse):
    """An argparse type that reports the parser's ValueError message."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _parse_box(text: str) -> Box:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"box must be x0,y0,x1,y1, got {text!r}")
    return Box(*(int(p) for p in parts))


def _parse_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (int(p) for p in parts)
    if step < 1:
        raise ValueError(f"range step must be >= 1, got {step}")
    if stop < start:
        raise ValueError(f"empty range {text!r}")
    return range(start, stop + 1, step)


def _parse_ints(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p]


def _parse_norm(text: str) -> tuple[int, int] | None:
    if text == "native":
        return None
    w, sep, h = text.partition("x")
    if not sep:
        raise ValueError(f"norm must be 'native' or WxH, got {text!r}")
    return int(w), int(h)


def _parse_iou(text: str) -> float:
    t = float(text)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"IoU threshold must lie in [0, 1], got {t}")
    return t


def _parse_ious(text: str) -> list[float]:
    return [_parse_iou(p) for p in text.split(",") if p]


def _parse_optional_iou(text: str) -> float | None:
    return None if text == "none" else _parse_iou(text)


def cmd_dt(args) -> int:
    mask = read_mask(args.infile)
    dmap = truncated_edt(mask, args.radius)
    write_dtm(args.out, dmap, _provenance("dt", radius=args.radius))
    return 0


def cmd_encode(args) -> int:
    mask = read_mask(args.infile)
    _check_cells("bit-plane stack", args.bins * mask.height * mask.width, MAX_CELLS)
    scheme = make_uniform_scheme(args.bins, args.radius)
    stack = encode(truncated_edt(mask, args.radius), scheme)
    write_bps(args.out, stack, _provenance("encode", bins=args.bins, radius=args.radius))
    return 0


def cmd_decode(args) -> int:
    stack = read_bps(args.infile)
    mask = hard_decode(stack, args.mode)
    write_mask(args.out, mask, _provenance("decode", mode=args.mode))
    return 0


def cmd_softdecode(args) -> int:
    stack = read_bps(args.infile, lax=args.lax)
    prob = corrupt(stack, args.flip_prob, args.seed)
    params = SoftDecodeParams(args.weight, args.bias, args.threshold)
    mask = soft_decode(prob, params, args.mode)
    header = _provenance(
        "softdecode",
        flip_prob=args.flip_prob,
        seed=args.seed,
        weight=args.weight,
        bias=args.bias,
        threshold=args.threshold,
        mode=args.mode,
        lax=args.lax,
    )
    write_mask(args.out, mask, header)
    return 0


def cmd_boxsim(args) -> int:
    # Lengths by arithmetic: len() of a range fails beyond sys.maxsize.
    shrinks, shifts = (
        (r.stop - r.start - 1) // r.step + 1 for r in (args.shrink_range, args.shift_range)
    )
    _check_cells("sweep", shrinks * shifts**2, MAX_SWEEP_CELLS)
    base_box = args.box
    _check_cells("box", base_box.box_area, MAX_CELLS)
    window = base_box.box_area if args.norm is None else args.norm[0] * args.norm[1]
    _check_cells("window stack", args.bins * window, MAX_CELLS)
    label_map = read_label_map(args.labels)
    mask = extract_instance(label_map, args.id)
    perturbations = []
    for shrink in args.shrink_range:
        scale = shrink_perturbation(base_box, shrink)
        for dx in args.shift_range:
            for dy in args.shift_range:
                perturbations.append(Perturbation(dx=dx, dy=dy, sx=scale.sx, sy=scale.sy))
    scheme = make_uniform_scheme(args.bins, args.radius)
    records = robustness_sweep(
        mask, base_box, perturbations, scheme, args.norm, args.mode
    )
    header = _provenance(
        "boxsim",
        id=args.id,
        box=f"{base_box.x0},{base_box.y0},{base_box.x1},{base_box.y1}",
        bins=args.bins,
        radius=args.radius,
        norm="native" if args.norm is None else f"{args.norm[0]}x{args.norm[1]}",
        mode=args.mode,
    )
    rows = [
        (r.dx, r.dy, r.sx, r.sy, r.iou_beyond, r.iou_inside) for r in records
    ]
    write_csv(
        args.out,
        ["dx", "dy", "sx", "sy", "iou_beyond", "iou_inside"],
        rows,
        header,
    )
    return 0


def cmd_eval(args) -> int:
    label_map = read_label_map(args.gt)
    ids = label_map.instance_ids()
    if not ids:
        raise ValueError("ground-truth label map contains no instances")
    gts = [extract_instance(label_map, i) for i in ids]
    proposals = read_proposals(args.proposals)
    canvas = (label_map.width, label_map.height)
    if args.box_nms is not None:
        proposals = nms(proposals, args.box_nms, use_masks=False)
    if args.top > 0:
        proposals = top_scoring(proposals, args.top)
    if args.nms is not None:
        proposals = nms(proposals, args.nms, use_masks=True, canvas_size=canvas)
    report = evaluate(proposals, gts, args.ar_n, args.ap_iou)
    header = _provenance(
        "eval",
        ar_n=",".join(str(n) for n in args.ar_n),
        ap_iou=",".join(repr(t) for t in args.ap_iou),
        box_nms=args.box_nms,
        top=args.top,
        mask_nms=args.nms,
    )
    rows: list[tuple[object, object, object]] = [
        ("count", "ground_truth", report.num_ground_truth),
        ("count", "proposals", report.num_proposals),
    ]
    rows += [("recall", t, r) for t, r in report.curve]
    rows += [("ar", n, v) for n, v in report.ar_at_n.items()]
    rows += [("ap", t, v) for t, v in report.ap_at.items()]
    write_csv(args.out, ["section", "key", "value"], rows, header)
    return 0


def _bench_mask(size: int, seed: int) -> BinaryMask:
    rng = np.random.default_rng(seed)
    return BinaryMask(rng.random((size, size)) < 0.5)


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError(f"reps must be >= 1, got {args.reps}")
    sizes = args.sizes
    for size in sizes:
        _check_cells("bench mask", size * size, MAX_CELLS)
    rows = []
    oracle_rate = None  # seconds per (pixel, Q-pixel) pair from the largest oracle run
    measurements = []
    for size in sizes:
        mask = _bench_mask(size, args.seed + size)
        pairs = size * size * int(boundary_set(mask).member.sum())
        fast_times = []
        fast_map = None
        for _ in range(args.reps):
            t0 = time.perf_counter()
            fast_map = truncated_edt(mask, args.radius)
            fast_times.append(time.perf_counter() - t0)
        fast_median = statistics.median(fast_times)
        oracle_seconds = None
        match = None
        if size <= args.oracle_limit:
            t0 = time.perf_counter()
            oracle_map = brute_force_edt(mask, args.radius)
            oracle_seconds = time.perf_counter() - t0
            match = bool(np.array_equal(fast_map.values, oracle_map.values))
            if not match:
                raise RuntimeError(
                    f"fast and oracle transforms disagree at size {size}"
                )
            oracle_rate = oracle_seconds / pairs
        measurements.append((size, pairs, fast_median, oracle_seconds, match))
    for size, pairs, fast_median, oracle_seconds, match in measurements:
        extrapolated = oracle_rate * pairs if oracle_rate is not None else None
        speedup = extrapolated / fast_median if extrapolated is not None else None
        rows.append(
            (
                size,
                args.reps,
                pairs,
                fast_median,
                "" if oracle_seconds is None else repr(oracle_seconds),
                "" if extrapolated is None else repr(extrapolated),
                "" if speedup is None else repr(speedup),
                "" if match is None else ("yes" if match else "no"),
            )
        )
    header = _provenance(
        "bench",
        sizes=",".join(str(s) for s in sizes),
        reps=args.reps,
        radius=args.radius,
        seed=args.seed,
        oracle_limit=args.oracle_limit,
    )
    write_csv(
        args.out,
        [
            "size",
            "reps",
            "pair_count",
            "fast_median_s",
            "oracle_s",
            "oracle_extrapolated_s",
            "speedup_vs_extrapolated",
            "oracle_match",
        ],
        rows,
        header,
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dtmask",
        description="Truncated-distance-transform mask codec and evaluation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dt", help="distance transform of a mask")
    p.add_argument("--in", dest="infile", required=True, help="input mask (PBM)")
    p.add_argument("--radius", type=int, default=13, help="truncation radius")
    p.add_argument("--out", required=True, help="output distance map (DTM)")
    p.set_defaults(func=cmd_dt)

    p = sub.add_parser("encode", help="encode a mask into bit planes")
    p.add_argument("--in", dest="infile", required=True, help="input mask (PBM)")
    p.add_argument("--bins", type=int, default=5, help="quantization bin count")
    p.add_argument("--radius", type=int, default=13, help="truncation radius")
    p.add_argument("--out", required=True, help="output stack (BPS)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode bit planes into a mask")
    p.add_argument("--in", dest="infile", required=True, help="input stack (BPS)")
    p.add_argument("--mode", choices=DECODE_MODES, default="conservative")
    p.add_argument("--out", required=True, help="output mask (PBM)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("softdecode", help="corrupt then soft-decode bit planes")
    p.add_argument("--in", dest="infile", required=True, help="input stack (BPS)")
    p.add_argument("--flip-prob", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight", type=float, default=DEFAULT_SOFT_WEIGHT)
    p.add_argument("--bias", type=float, default=DEFAULT_SOFT_BIAS)
    p.add_argument("--threshold", type=float, default=DEFAULT_SOFT_THRESHOLD)
    p.add_argument("--mode", choices=DECODE_MODES, default="conservative")
    p.add_argument("--lax", action="store_true", help="accept non-one-hot input")
    p.add_argument("--out", required=True, help="output mask (PBM)")
    p.set_defaults(func=cmd_softdecode)

    p = sub.add_parser("boxsim", help="box-perturbation robustness sweep")
    p.add_argument("--labels", required=True, help="ground-truth label map (PGM)")
    p.add_argument("--id", type=int, required=True, help="instance id")
    p.add_argument(
        "--box", type=_arg(_parse_box), required=True, help="base box x0,y0,x1,y1"
    )
    p.add_argument(
        "--shrink-range",
        type=_arg(_parse_range),
        default="0:0:1",
        help="per-side shrink sweep start:stop:step",
    )
    p.add_argument(
        "--shift-range",
        type=_arg(_parse_range),
        default="0:0:1",
        help="center shift sweep start:stop:step (applied to dx and dy)",
    )
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--radius", type=int, default=13)
    p.add_argument("--mode", choices=DECODE_MODES, default="conservative")
    p.add_argument(
        "--norm",
        type=_arg(_parse_norm),
        default="native",
        help="normalized window size WxH, or 'native' for unit scale",
    )
    p.add_argument("--out", required=True, help="output records (CSV)")
    p.set_defaults(func=cmd_boxsim)

    p = sub.add_parser("eval", help="evaluate proposals against a label map")
    p.add_argument("--proposals", required=True, help="proposal list file")
    p.add_argument("--gt", required=True, help="ground-truth label map (PGM)")
    p.add_argument("--ar-n", type=_arg(_parse_ints), default="10,100,1000")
    p.add_argument("--ap-iou", type=_arg(_parse_ious), default="0.5,0.7")
    p.add_argument(
        "--box-nms",
        type=_arg(_parse_optional_iou),
        default=str(DEFAULT_BOX_NMS_IOU),
        help="box NMS IoU threshold, or 'none'",
    )
    p.add_argument(
        "--top",
        type=int,
        default=DEFAULT_PROPOSAL_CAP,
        help="keep this many top-scoring proposals (0 = keep all)",
    )
    p.add_argument(
        "--nms",
        type=_arg(_parse_optional_iou),
        default=str(DEFAULT_MASK_NMS_IOU),
        help="mask NMS IoU threshold, or 'none'",
    )
    p.add_argument("--out", required=True, help="output report (CSV)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time the fast transform against the oracle")
    p.add_argument("--sizes", type=_arg(_parse_ints), default="128,256,512")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--radius", type=int, default=13)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--oracle-limit",
        type=int,
        default=128,
        help="largest size at which the brute-force oracle runs",
    )
    p.add_argument("--out", required=True, help="output timings (CSV)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
