"""Instance-segmentation evaluation: IoU, matching, AR, AP, and NMS.

Matching is the standard greedy protocol: proposals in strictly
descending score (ties broken by ascending input index) each claim the
unclaimed ground truth of highest IoU at or above the threshold, ties
going to the lowest ground-truth index.  It ranks each ground truth by
the score-order position of its claimant; no claim depends on a lower
score, so the top n proposals claim exactly the ranks below n.  One
matching per IoU threshold thus gives recall at every budget, AR@N and
AP, mutually consistent and fully deterministic.

Mask IoUs are computed sparsely, after COCO's RLE `maskUtils.iou`: each
mask is held once in local form (its tight bounding box clipped to the
canvas, the raster inside that box, and its pixel count), and pixels
are intersected only for pairs whose boxes overlap.  No full-canvas
mask is built for a box-anchored proposal.  The result equals
`mask_iou` of the full-canvas masks exactly, cell by cell.  This one
kernel scores eval, mask NMS and `boxsim.robustness_sweep`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .grid import BinaryMask, Box, BoxProposal

# Recall is averaged over this IoU grid for AR@N.
AR_IOU_THRESHOLDS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

# Post-processing defaults: box-stage NMS, proposal cap, mask-stage NMS.
DEFAULT_BOX_NMS_IOU = 0.7
DEFAULT_MASK_NMS_IOU = 0.5
DEFAULT_PROPOSAL_CAP = 300


def mask_iou(a: BinaryMask, b: BinaryMask) -> float:
    """Intersection over union of two masks of equal dimensions.

    Two empty masks have IoU 1 (nothing disagrees); exactly one empty
    gives 0.
    """
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(
            f"mask dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )
    union = int((a.pixels | b.pixels).sum())
    if union == 0:
        return 1.0
    return int((a.pixels & b.pixels).sum()) / union


def box_iou(a: Box, b: Box) -> float:
    """Intersection over union of two half-open boxes."""
    iw = min(a.x1, b.x1) - max(a.x0, b.x0)
    ih = min(a.y1, b.y1) - max(a.y0, b.y0)
    inter = max(iw, 0) * max(ih, 0)
    union = a.box_area + b.box_area - inter
    return inter / union


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one greedy matching pass.

    `pairs` holds (proposal index, ground-truth index, iou) triples;
    no index appears twice.  `unmatched_gts` lists ground-truth indices
    no proposal claimed.
    """

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_gts: tuple[int, ...]


def _score_order(proposals: Sequence[BoxProposal]) -> list[int]:
    return sorted(range(len(proposals)), key=lambda i: (-proposals[i].score, i))


def _canvas_shape(gts: Sequence[BinaryMask]) -> tuple[int, int]:
    if not gts:
        raise ValueError("ground-truth list is empty; recall is undefined")
    shape = gts[0].pixels.shape
    for g in gts[1:]:
        if g.pixels.shape != shape:
            raise ValueError("ground-truth masks must share one canvas")
    return shape


class _LocalMasks(NamedTuple):
    """Masks on one canvas, each kept only inside its tight bounding box.

    `boxes` rows are half-open (x0, y0, x1, y1) canvas extents, (0, 0,
    0, 0) for an empty mask; `rasters` holds each mask's pixels inside
    its box; `areas` counts its object pixels.
    """

    boxes: np.ndarray
    rasters: np.ndarray
    areas: np.ndarray

    def take(self, idx) -> "_LocalMasks":
        return _LocalMasks(self.boxes[idx], self.rasters[idx], self.areas[idx])


def _local_masks(windows) -> _LocalMasks:
    """Local form of (x, y, pixels) canvas windows, cropped to the pixels set."""
    windows = list(windows)
    boxes = np.zeros((len(windows), 4), dtype=np.int64)
    rasters = np.empty(len(windows), dtype=object)
    areas = np.zeros(len(windows), dtype=np.int64)
    for k, (x, y, pixels) in enumerate(windows):
        rows = np.flatnonzero(pixels.any(axis=1))
        cols = np.flatnonzero(pixels.any(axis=0))
        if rows.size == 0:
            rasters[k] = pixels[:0, :0]
            continue
        y0, y1, x0, x1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
        boxes[k] = (x + x0, y + y0, x + x1, y + y1)
        rasters[k] = pixels[y0:y1, x0:x1]
        areas[k] = np.count_nonzero(rasters[k])
    return _LocalMasks(boxes, rasters, areas)


def _proposal_masks(proposals: Sequence[BoxProposal], width: int, height: int) -> _LocalMasks:
    return _local_masks(p.canvas_window(width, height) for p in proposals)


def _iou_matrix(a: _LocalMasks, b: _LocalMasks) -> np.ndarray:
    """Mask IoU of every mask in `a` with every mask in `b`.

    Pixels are intersected only where bounding boxes overlap; every cell
    equals `mask_iou` of the two full-canvas masks exactly, including 1.0
    for two empty masks.
    """
    out = np.where(a.areas[:, None] + b.areas[None, :] == 0, 1.0, 0.0)
    lo = np.maximum(a.boxes[:, None, :2], b.boxes[None, :, :2])
    hi = np.minimum(a.boxes[:, None, 2:], b.boxes[None, :, 2:])
    for i, j in zip(*np.nonzero((lo < hi).all(axis=2))):
        (x0, y0), (x1, y1) = lo[i, j], hi[i, j]
        ax, ay = a.boxes[i, :2]
        bx, by = b.boxes[j, :2]
        inter = int(np.count_nonzero(
            a.rasters[i][y0 - ay : y1 - ay, x0 - ax : x1 - ax]
            & b.rasters[j][y0 - by : y1 - by, x0 - bx : x1 - bx]
        ))
        out[i, j] = inter / (int(a.areas[i]) + int(b.areas[j]) - inter)
    return out


def _claim_ranks(
    iou_mat: np.ndarray, order: Sequence[int], iou_thresh: float
) -> np.ndarray:
    """Position in `order` of each ground truth's claimant, `len(order)` if none."""
    ranks = np.full(iou_mat.shape[1], len(order))
    taken = np.zeros(iou_mat.shape[1], dtype=bool)
    # A row whose best IoU is below the threshold cannot claim anything.
    row_best = iou_mat.max(axis=1, initial=-1.0)
    for pos, i in enumerate(order):
        if row_best[i] < iou_thresh:
            continue
        if taken.all():
            break
        row = np.where(taken, -1.0, iou_mat[i])
        j = int(row.argmax())  # argmax takes the lowest index on ties
        if row[j] >= iou_thresh:
            taken[j] = True
            ranks[j] = pos
    return ranks


def _match(
    proposals: Sequence[BoxProposal], gts: Sequence[BinaryMask]
) -> tuple[np.ndarray, list[int], Callable[[float], np.ndarray]]:
    """The proposal x ground-truth IoU matrix, the score order, and the
    claim ranks at a threshold, matched once per distinct threshold on
    first use, so a caller's checks run before any matching."""
    h, w = _canvas_shape(gts)
    mat = _iou_matrix(_proposal_masks(proposals, w, h), _local_masks((0, 0, g.pixels) for g in gts))
    order = _score_order(proposals)
    return mat, order, functools.cache(lambda t: _claim_ranks(mat, order, t))


def _check_ascending(thresholds: Sequence[float]) -> None:
    if any(b < a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be sorted ascending")


def _check_budget(n: int) -> None:
    if n < 1:
        raise ValueError(f"proposal budget must be >= 1, got {n}")


def _recall(ranks: np.ndarray, n: int) -> float:
    """Recall of the top n proposals; n must not exceed their count."""
    return int(np.count_nonzero(ranks < n)) / ranks.size


def _mean_recall(ranks: Callable[[float], np.ndarray], n: int) -> float:
    """Recall of the top n proposals averaged over `AR_IOU_THRESHOLDS`."""
    return sum(_recall(ranks(t), n) for t in AR_IOU_THRESHOLDS) / len(AR_IOU_THRESHOLDS)


def _average_precision(ranks: np.ndarray, n_props: int) -> float:
    """All-points AP: each hit's recall step times the best precision from it on.

    Precision only falls between hits, so its envelope is read at hits alone.
    """
    hits = np.sort(ranks[ranks < n_props])
    precision = np.arange(1, hits.size + 1) / (hits + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    steps = np.diff(np.arange(hits.size + 1) / ranks.size)
    return float((steps * envelope).sum())


def greedy_match(
    proposals: Sequence[BoxProposal], gts: Sequence[BinaryMask], iou_thresh: float
) -> MatchResult:
    """Match proposals to ground truths by mask IoU, greedily by score."""
    mat, order, claim_ranks = _match(proposals, gts)
    ranks = claim_ranks(iou_thresh).tolist()
    claimed = sorted((r, j) for j, r in enumerate(ranks) if r < len(order))
    return MatchResult(
        tuple((order[r], j, float(mat[order[r], j])) for r, j in claimed),
        tuple(j for j, r in enumerate(ranks) if r == len(order)),
    )


def recall_curve(
    proposals: Sequence[BoxProposal],
    gts: Sequence[BinaryMask],
    thresholds: Sequence[float] = AR_IOU_THRESHOLDS,
) -> list[tuple[float, float]]:
    """Recall of the greedy matcher at each IoU threshold.

    Thresholds must be sorted ascending; recall is then non-increasing
    along the curve.
    """
    _check_ascending(thresholds)
    _, order, ranks = _match(proposals, gts)
    return [(float(t), _recall(ranks(t), len(order))) for t in thresholds]


def top_scoring(proposals: Sequence[BoxProposal], n: int) -> list[BoxProposal]:
    """The n highest-scoring proposals, score ties by input order."""
    _check_budget(n)
    return [proposals[i] for i in _score_order(proposals)[:n]]


def average_recall(
    proposals: Sequence[BoxProposal], gts: Sequence[BinaryMask], n: int
) -> float:
    """Mean recall of the top-n proposals over the standard IoU grid."""
    _check_budget(n)
    _, order, ranks = _match(proposals, gts)
    return _mean_recall(ranks, min(n, len(order)))


def average_precision(
    proposals: Sequence[BoxProposal], gts: Sequence[BinaryMask], iou_thresh: float
) -> float:
    """Area under the monotone-envelope precision-recall curve.

    Proposals are ranked by score; each is a true positive when the
    greedy matcher pairs it with a ground truth at `iou_thresh`.  All
    recall points contribute (all-points interpolation).
    """
    _, order, ranks = _match(proposals, gts)
    return _average_precision(ranks(iou_thresh), len(order))


# Below this coordinate magnitude box areas and unions stay under 2**53,
# so int64 products and float64 division reproduce `box_iou` exactly.
_EXACT_BOX_COORD = 2**25


def _box_iou_row(boxes: np.ndarray, i: int, others: np.ndarray) -> np.ndarray:
    """`box_iou` of box `i` with each box in `others`, as one vector."""
    x0, y0, x1, y1 = boxes[i]
    ox0, oy0, ox1, oy1 = boxes[others].T
    iw = np.maximum(np.minimum(x1, ox1) - np.maximum(x0, ox0), 0)
    ih = np.maximum(np.minimum(y1, oy1) - np.maximum(y0, oy0), 0)
    inter = iw * ih
    return inter / ((x1 - x0) * (y1 - y0) + (ox1 - ox0) * (oy1 - oy0) - inter)


def nms(
    proposals: Sequence[BoxProposal],
    iou_thresh: float,
    use_masks: bool = False,
    canvas_size: tuple[int, int] | None = None,
) -> list[BoxProposal]:
    """Greedy non-maximum suppression in descending score order.

    A proposal is suppressed when its overlap with an already kept one
    exceeds `iou_thresh` (strictly).  Overlap is box IoU, or mask IoU
    when `use_masks` is set; mask NMS needs `canvas_size` = (width,
    height) to place box-anchored masks.  Output preserves score
    order.  Each kept proposal suppresses the later ones it overlaps,
    which keeps the same set as checking each proposal against every
    kept one, because both overlaps are symmetric.
    """
    order = np.array(_score_order(proposals), dtype=np.intp)
    if use_masks:
        if canvas_size is None:
            raise ValueError("mask NMS needs canvas_size=(width, height)")
        local = _proposal_masks(proposals, *canvas_size)
        overlap = lambda i, rest: _iou_matrix(local.take([i]), local.take(rest))[0]
    else:
        coords = [(p.box.x0, p.box.y0, p.box.x1, p.box.y1) for p in proposals]
        exact = all(abs(v) < _EXACT_BOX_COORD for c in coords for v in c)
        boxes = np.array(coords, dtype=np.int64 if exact else object).reshape(-1, 4)
        overlap = lambda i, rest: _box_iou_row(boxes, i, rest)
    alive = np.ones(len(proposals), dtype=bool)
    keep: list[int] = []
    for pos, i in enumerate(order):
        if not alive[i]:
            continue
        keep.append(i)
        rest = order[pos + 1 :]
        rest = rest[alive[rest]]
        alive[rest[overlap(i, rest) > iou_thresh]] = False
    return [proposals[i] for i in keep]


@dataclass
class EvalReport:
    """Bundle of evaluation results."""

    num_ground_truth: int
    num_proposals: int
    curve: list[tuple[float, float]]
    ar_at_n: dict[int, float]
    ap_at: dict[float, float]


def evaluate(
    proposals: Sequence[BoxProposal],
    gts: Sequence[BinaryMask],
    ar_ns: Sequence[int] = (10, 100, 1000),
    ap_ious: Sequence[float] = (0.5, 0.7),
) -> EvalReport:
    """Recall curve, AR@N, and AP from one matching per IoU threshold.

    The proposal x ground-truth IoU matrix is built once and matched at
    each distinct threshold of `AR_IOU_THRESHOLDS` and `ap_ious`.  The
    report keys results by budget and threshold, so repeats are rejected.
    """
    _, order, ranks = _match(proposals, gts)
    for n in ar_ns:
        _check_budget(n)
    for what, values in (("AR budget", ar_ns), ("AP IoU threshold", ap_ious)):
        repeated = [v for k, v in enumerate(values) if v in values[:k]]
        if repeated:
            raise ValueError(f"{what} {repeated[0]} is repeated")
    m = len(order)
    return EvalReport(
        num_ground_truth=len(gts),
        num_proposals=len(proposals),
        curve=[(t, _recall(ranks(t), m)) for t in AR_IOU_THRESHOLDS],
        ar_at_n={n: _mean_recall(ranks, min(n, m)) for n in ar_ns},
        ap_at={t: _average_precision(ranks(t), m) for t in ap_ious},
    )
