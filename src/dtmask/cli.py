"""Command-line front end: transforms, codecs, sweeps, eval, benchmarks.

Every command is deterministic given its flags and seed.  Every output
file starts with two comment lines: the command and version, then every
flag except the file paths as key=value, in the order the flags are
declared, built from the parsed arguments.  Exit codes: 0 success, 2
input or usage error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    corrupt,
    encode,
    hard_decode,
    make_uniform_scheme,
    soft_decode,
)
from .boxsim import Perturbation, RobustnessRecord, robustness_sweep, shrink_perturbation
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
# Largest boxsim box coordinate and shift, in magnitude.  A perturbed
# box's corners then stay below 2**52, so every pixel index computed
# from them stays far inside int64.
MAX_COORD = 2**50
# Parsed arguments that are not settings: the subcommand, its handler
# and the file paths.  Every other flag is echoed in the header.
_NOT_SETTINGS = frozenset({"command", "func", "infile", "out", "labels", "proposals", "gt"})
# Header keys that differ from the flag's dest.
_HEADER_KEYS = {"nms": "mask_nms"}
# The word a flag accepts for None, where it is not "none".
_NONE_WORDS = {"norm": "native"}


def _check_cells(what: str, cells: int, limit: int) -> None:
    if cells > limit:
        raise ValueError(f"{what} of {cells} cells exceeds the limit of {limit}")


def _fmt(v) -> str:
    """A parsed setting in the syntax its flag accepts."""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return ",".join(map(_fmt, v))
    if isinstance(v, tuple):  # --norm WxH
        return "x".join(map(str, v))
    if isinstance(v, range):  # _parse_range's inclusive stop
        return f"{v.start}:{v.stop - 1}:{v.step}"
    if isinstance(v, Box):
        return f"{v.x0},{v.y0},{v.x1},{v.y1}"
    return str(v)


def _provenance(args: argparse.Namespace) -> list[str]:
    """Header lines echoing every setting of one invocation, in flag order."""
    pairs = []
    for key, value in vars(args).items():
        if key not in _NOT_SETTINGS:
            text = _NONE_WORDS.get(key, "none") if value is None else _fmt(value)
            pairs.append(f"{_HEADER_KEYS.get(key, key)}={text}")
    return [f"dtmask {args.command} v{__version__}", " ".join(pairs)]


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
    coords = [int(p) for p in parts]
    for v in coords:
        if abs(v) > MAX_COORD:
            raise ValueError(f"box coordinates must lie in [-2**50, 2**50], got {v}")
    return Box(*coords)


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


def _split_list(text: str) -> list[str]:
    if not text:
        raise ValueError("list must not be empty")
    items = text.split(",")
    if "" in items:
        raise ValueError(f"empty item in list {text!r}")
    return items


def _parse_ints(text: str) -> list[int]:
    return [int(p) for p in _split_list(text)]


def _parse_count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    return n


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
    return [_parse_iou(p) for p in _split_list(text)]


def _parse_optional_iou(text: str) -> float | None:
    return None if text == "none" else _parse_iou(text)


def cmd_dt(args) -> int:
    mask = read_mask(args.infile)
    dmap = truncated_edt(mask, args.radius)
    write_dtm(args.out, dmap, _provenance(args))
    return 0


def cmd_encode(args) -> int:
    mask = read_mask(args.infile)
    _check_cells("bit-plane stack", args.bins * mask.height * mask.width, MAX_CELLS)
    scheme = make_uniform_scheme(args.bins, args.radius)
    stack = encode(truncated_edt(mask, args.radius), scheme)
    write_bps(args.out, stack, _provenance(args))
    return 0


def cmd_decode(args) -> int:
    stack = read_bps(args.infile)
    mask = hard_decode(stack, args.mode)
    write_mask(args.out, mask, _provenance(args))
    return 0


def cmd_softdecode(args) -> int:
    stack = read_bps(args.infile, lax=args.lax)
    noisy = corrupt(stack, args.flip_prob, args.seed)
    mask = soft_decode(
        noisy, args.mode, weight=args.weight, bias=args.bias, threshold=args.threshold
    )
    write_mask(args.out, mask, _provenance(args))
    return 0


def cmd_boxsim(args) -> int:
    # Lengths by arithmetic: len() of a range fails beyond sys.maxsize.
    shrinks, shifts = (
        (r.stop - r.start - 1) // r.step + 1 for r in (args.shrink_range, args.shift_range)
    )
    _check_cells("sweep", shrinks * shifts**2, MAX_SWEEP_CELLS)
    for shift in (args.shift_range[0], args.shift_range[-1]):
        if abs(shift) > MAX_COORD:
            raise ValueError(f"shifts must lie in [-2**50, 2**50], got {shift}")
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
    columns = [f.name for f in dataclasses.fields(RobustnessRecord)]
    rows = [dataclasses.astuple(r) for r in records]
    write_csv(args.out, columns, rows, _provenance(args))
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
    rows: list[tuple[object, object, object]] = [
        ("count", "ground_truth", report.num_ground_truth),
        ("count", "proposals", report.num_proposals),
    ]
    rows += [("recall", t, r) for t, r in report.curve]
    rows += [("ar", n, v) for n, v in report.ar_at_n.items()]
    rows += [("ap", t, v) for t, v in report.ap_at.items()]
    write_csv(args.out, ["section", "key", "value"], rows, _provenance(args))
    return 0


def _bench_mask(size: int, seed: int) -> BinaryMask:
    rng = np.random.default_rng(seed)
    return BinaryMask(rng.random((size, size)) < 0.5)


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError(f"reps must be >= 1, got {args.reps}")
    sizes = args.sizes
    for size in sizes:
        if size < 1:
            raise ValueError(f"sizes must be >= 1, got {size}")
        _check_cells("bench mask", size * size, MAX_CELLS)
    measurements = []
    # Seconds per (pixel, Q-pixel) pair, from the largest size that ran the oracle.
    oracle_size, oracle_rate = -1, None
    for size in sizes:
        mask = _bench_mask(size, args.seed + size)
        pairs = size * size * boundary_set(mask).area
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
            if size > oracle_size:
                oracle_size, oracle_rate = size, oracle_seconds / pairs
        measurements.append((size, pairs, fast_median, oracle_seconds, match))
    rows = []
    for size, pairs, fast_median, oracle_seconds, match in measurements:
        extrapolated = None if oracle_rate is None else oracle_rate * pairs
        speedup = None if extrapolated is None else extrapolated / fast_median
        rows.append(
            (size, args.reps, pairs, fast_median, oracle_seconds, extrapolated, speedup, match)
        )
    columns = ["size", "reps", "pair_count", "fast_median_s", "oracle_s",
               "oracle_extrapolated_s", "speedup_vs_extrapolated", "oracle_match"]
    write_csv(args.out, columns, rows, _provenance(args))
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
    p.add_argument("--seed", type=_arg(_parse_count), default=0)
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
    p.add_argument(
        "--norm",
        type=_arg(_parse_norm),
        default="native",
        help="normalized window size WxH, or 'native' for unit scale",
    )
    p.add_argument("--mode", choices=DECODE_MODES, default="conservative")
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
        type=_arg(_parse_count),
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
