"""Box-robustness simulation: recover masks beyond a perturbed box.

The experiment mimics a detector handing the codec an imperfect box.
A window around an instance is normalized to a fixed size, encoded
against the true object boundary of the full image (so a box cutting
the object still sees large distances at the cut), decoded back onto
the image where disks may extend past the box, and compared with the
instance interior both with and without clipping to the box.  A sweep
decodes each window only where it can paint, the box padded by the
largest painted radius, and scores all of its comparisons in one call
of `metrics._iou_matrix`, the IoU kernel eval and mask NMS use.  The
full-image transform is the same for every box of a sweep, so a sweep
computes it once and samples each window's cells from it.  Under a
window's scale num/den a stored value v scales to ceil(v * num / den),
which reaches the largest bin radius r_K exactly when
v >= floor((r_K - 1) * den / num) + 1.  Every value from that bound on
lands in the last bin, and the value just below it does not, so the
bound is the least transform cap that leaves the window unchanged.  A
sweep caps its transform at the largest bound over its windows, or at
the raster's reach if that is lower.  The same rule, with r_n for r_K,
encodes a window: its planes are K - 1 compares of the raw int32
transform against the thresholds (r_n - 1) * den // num + 1, and no
scaled raster is built.

A sweep batches its windows.  Windows sharing a (norm size, box size)
share a scale, painted radii and a cell -> pixel pattern, up to an
offset, so they are read on the pattern's pixels (cells sharing a pixel
read one value), and each painting bin is placed into a stack of
frames and painted by one `codec._disk_sum` call per chunk of
`_CHUNK_CELLS` padded frame cells.  A window's frame holds the window
(the box padded by the pad, cut to the canvas) and the bounding box of
its set cells whose pixels lie within the pad of the canvas; in a sweep
every set cell lies on the image, so the frame is the window.
`encode_window` and `decode_to_canvas` are the batch of one through the
same helpers.

Every numeric step that affects rasters runs in integer arithmetic:
the normalization scale is carried as an exact fraction, value scaling
uses integer ceiling division, and painted disk radii use the codec's
integer round-half-up.  Records are therefore reproducible bit for bit.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    BinaryMask,
    Box,
    _Adopted,
    _integer,
    _nearest_pixels,
    _reach,
    sample_raster,
)
from .edt import TruncatedDistanceMap, interior_mask, truncated_edt
from .codec import (
    DEFAULT_BINS,
    DEFAULT_RADIUS,
    BitPlaneStack,
    QuantizationScheme,
    _bin_planes,
    _disk_sum,
    _painted_radius,
    make_uniform_scheme,
)
from .metrics import _iou_matrix, _local_masks

DEFAULT_NORM_SIZE = 28


@dataclass(frozen=True)
class WindowSpec:
    """A box in image coordinates plus its normalized window size."""

    box: Box
    norm_width: int = DEFAULT_NORM_SIZE
    norm_height: int = DEFAULT_NORM_SIZE

    def __post_init__(self):
        _integer(self.norm_width, "normalized window width")
        _integer(self.norm_height, "normalized window height")
        if self.norm_width < 1 or self.norm_height < 1:
            raise ValueError("normalized window dimensions must be >= 1")

    def min_scale_fraction(self) -> tuple[int, int]:
        """min(norm_width / box.width, norm_height / box.height) as an exact
        (numerator, denominator) pair."""
        if self.norm_width * self.box.height <= self.norm_height * self.box.width:
            return self.norm_width, self.box.width
        return self.norm_height, self.box.height


@dataclass(frozen=True)
class Perturbation:
    """Center shift in pixels and per-axis scale factors for a box."""

    dx: int = 0
    dy: int = 0
    sx: float = 1.0
    sy: float = 1.0

    def __post_init__(self):
        for name in ("dx", "dy"):
            _integer(getattr(self, name), f"shift {name}")
        for name in ("sx", "sy"):
            v = getattr(self, name)
            if not 0 < v <= sys.float_info.max:
                raise ValueError(f"scale factor {name} must be finite and positive, got {v!r}")


@dataclass(frozen=True)
class RobustnessRecord:
    """One sweep row: the perturbation applied and both IoUs.

    `iou_beyond` compares the unclipped canvas decode with the instance
    interior; `iou_inside` compares the same decode clipped to the
    perturbed box.  At unit scale in conservative mode every decoded
    pixel lies in the interior, so clipping only removes true positives
    and iou_beyond >= iou_inside.  Resampled windows can paint stray
    pixels past the interior, and removing those can pull the clipped
    IoU above the unclipped one.
    """

    dx: int
    dy: int
    sx: float
    sy: float
    iou_beyond: float
    iou_inside: float

    def __post_init__(self):
        if not (0.0 <= self.iou_beyond <= 1.0 and 0.0 <= self.iou_inside <= 1.0):
            raise ValueError("IoU values must lie in [0, 1]")


def perturb_box(box: Box, pert: Perturbation) -> Box:
    """Shift the box center and rescale its extent, then round.

    Coordinates come from round-half-up of center +/- half-extent,
    computed exactly in integers from each scale factor's binary
    fraction, so sweeps reproduce identically across platforms and at
    any shift.  A perturbation that rounds the box to zero extent is an
    error.
    """

    def side(lo: int, hi: int, shift: int, scale: float) -> tuple[int, int]:
        # floor((lo + hi) / 2 + shift -/+ (hi - lo) * scale / 2 + 1 / 2)
        num, den = float(scale).as_integer_ratio()
        mid = den * (lo + hi + 2 * shift + 1)
        half = (hi - lo) * num
        return (mid - half) // (2 * den), (mid + half) // (2 * den)

    x0, x1 = side(box.x0, box.x1, pert.dx, pert.sx)
    y0, y1 = side(box.y0, box.y1, pert.dy, pert.sy)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"perturbation collapses the box to ({x0}, {y0}, {x1}, {y1})")
    return Box(x0, y0, x1, y1)


def shrink_perturbation(box: Box, pixels: int) -> Perturbation:
    """Perturbation that pulls every side of `box` in by `pixels`."""
    _integer(pixels, "shrink")
    if pixels < 0:
        raise ValueError(f"shrink must be >= 0, got {pixels}")
    if 2 * pixels >= box.width or 2 * pixels >= box.height:
        raise ValueError(f"shrink of {pixels} px per side swallows the box")
    return Perturbation(
        sx=(box.width - 2 * pixels) / box.width,
        sy=(box.height - 2 * pixels) / box.height,
    )


def encode_window(
    full: TruncatedDistanceMap, spec: WindowSpec, scheme: QuantizationScheme
) -> BitPlaneStack:
    """Ground-truth encoding of a normalized window.

    `full` is the transform of the whole image, so a box cutting the
    object still sees distances to the true object boundary.  Pipeline:
    sample `full` at the box pixels nearest the normalized cells (off the
    image they read 0; memory follows the window, not the box), then
    bin the raw values by thresholds: under the scale num/den of
    `spec.min_scale_fraction()` a value v scales to ceil(v * num / den),
    which reaches bin radius r_n exactly when v >= `_read_cap` =
    (r_n - 1) * den // num + 1, so K - 1 compares of the int32 samples
    give the planes of the exactly scaled and truncated window, with no
    scaled raster built.  Thresholds past int32 give empty planes.
    `full` must be capped at least at min(reach, `_read_cap(spec, r_K)`),
    the least cap that leaves the window unchanged; a transform capped
    below that is rejected, since a capped value would then encode
    below the last bin where the true distance encodes in it.
    """
    need = min(_reach(full.height, full.width), _read_cap(spec, scheme.radii[-1]))
    if full.radius_cap < need:
        raise ValueError(f"transform is capped at {full.radius_cap}, below the {need} this window reads")
    window = sample_raster(full.values, spec.box, spec.norm_width, spec.norm_height)
    thresholds = [_read_cap(spec, r) for r in scheme.radii[1:]]
    return BitPlaneStack(_Adopted(_bin_planes(window, thresholds)), scheme)


def _read_cap(spec: WindowSpec, radius: int) -> int:
    """Least stored value that scales to at least `radius` in the
    window: ceil(v * num / den) >= radius exactly when
    v * num > (radius - 1) * den."""
    num, den = spec.min_scale_fraction()
    return (radius - 1) * den // num + 1


def _pattern(length: int, cells: int) -> tuple[np.ndarray, list[int]]:
    """How `cells` nearest-neighbour cells map onto `length` pixels from
    0, as (starts, pixels): the first cell of each run of cells sharing a
    pixel, and that pixel, increasing."""
    pixels = _nearest_pixels(0, length, cells)
    starts = np.flatnonzero(np.diff(pixels, prepend=-1))
    return starts, pixels[starts].tolist()


def _span(pixels: list[int], lo: int, hi: int, first: int = 0, last: int | None = None) -> tuple[int, int]:
    """Entries [a, b) of increasing `pixels`, within [first, last), that
    lie in [lo, hi)."""
    last = len(pixels) if last is None else last
    a = bisect.bisect_left(pixels, lo, first, last)
    return a, max(a, bisect.bisect_left(pixels, hi, first, last))


def _index(pixels: list[int], a: int, b: int, offset: int):
    """pixels[a:b] + offset as an index: a slice where they are contiguous."""
    if b - a == pixels[b - 1] - pixels[a] + 1:
        return slice(pixels[a] + offset, pixels[a] + offset + b - a)
    return np.array([p + offset for p in pixels[a:b]])


def _block(index_y, index_x):
    """A 2-D index from per-axis indices, crossed when both are arrays."""
    if isinstance(index_y, np.ndarray) and isinstance(index_x, np.ndarray):
        return index_y[:, None], index_x
    return index_y, index_x


_EMPTY = np.zeros((0, 0), dtype=bool)
_EMPTY.setflags(write=False)

# Padded frame cells a sweep paints per `_disk_sum` call: windows sharing
# a (norm size, box size) are painted this many cells at a time.  Fewer
# cells pay numpy's per-call cost more often; more hold more memory.
_CHUNK_CELLS = 1 << 18


def _paint_windows(entries, radii, fill, pattern_y, pattern_x, size, pad, canvas_width, canvas_height):
    """Decode a batch of windows that share a cell -> pixel pattern.

    Entry b = (x0, y0, ia, ja, rows, cols) is a `size` = (width, height)
    box with its top-left pixel at (x0, y0), whose bits may be set only
    in the block of `rows` x `cols` cells from cell (ia, ja) of the
    pattern.  Cell (i, j) sits at canvas pixel (x0 + pattern_x[j],
    y0 + pattern_y[i]); cells sharing a pixel are already OR-ed.
    `radii` holds one painted radius per layer, and
    `fill(n, b, block_rows, block_cols, out)` writes layer n's bits of
    entry b, at slices of its block, into the bool array `out`.  Returns
    (x, y, pixels) per entry, as `_decode_window` does; a window the
    canvas misses, or a batch with no layer, gives (0, 0, 0 x 0).

    Entry b's frame holds its window, the box padded by `pad` and cut to
    the canvas, and the bounding box of its set cells whose pixels lie
    within `pad` of the canvas: a cell farther out paints nothing there.
    A block inside the window leaves the frame the window.  Frames are
    stacked, each at the top-left of its slot, into one (B, h, w + p)
    placement buffer; each layer is written there, through views where
    the pattern is contiguous, else through index arrays, and painted by
    one `_disk_sum` call into one shared accumulator.  Every layer
    writes the same cells, so the buffer needs no reset between layers,
    and the zeros beyond a smaller frame paint nothing.  The windows
    returned are views of the accumulator.
    """
    width, height = size
    out = [(0, 0, _EMPTY)] * len(entries)
    if not radii:
        return out
    frames = []
    for b, (x0, y0, ia, ja, rows, cols) in enumerate(entries):
        wx0, wx1 = max(x0 - pad, 0), min(x0 + width + pad, canvas_width)
        wy0, wy1 = max(y0 - pad, 0), min(y0 + height + pad, canvas_height)
        if wx0 >= wx1 or wy0 >= wy1:
            continue
        fx0, fy0, fx1, fy1 = wx0, wy0, wx1, wy1
        ra, rb = _span(pattern_y, -pad - y0, canvas_height + pad - y0, ia, ia + rows)
        ca, cb = _span(pattern_x, -pad - x0, canvas_width + pad - x0, ja, ja + cols)
        if ra < rb and ca < cb and not (
            wx0 <= x0 + pattern_x[ca] and x0 + pattern_x[cb - 1] < wx1
            and wy0 <= y0 + pattern_y[ra] and y0 + pattern_y[rb - 1] < wy1
        ):
            near = np.zeros((rb - ra, cb - ca), dtype=bool)
            bits = np.empty_like(near)
            for n in range(len(radii)):
                fill(n, b, slice(ra - ia, rb - ia), slice(ca - ja, cb - ja), bits)
                near |= bits
            set_rows, set_cols = np.flatnonzero(near.any(axis=1)), np.flatnonzero(near.any(axis=0))
            if set_rows.size:
                fx0 = min(fx0, x0 + pattern_x[ca + set_cols[0]])
                fx1 = max(fx1, x0 + pattern_x[ca + set_cols[-1]] + 1)
                fy0 = min(fy0, y0 + pattern_y[ra + set_rows[0]])
                fy1 = max(fy1, y0 + pattern_y[ra + set_rows[-1]] + 1)
        frames.append((b, (wx0, wy0, wx1, wy1), (fx0, fy0, fx1, fy1)))
    if not frames:
        return out
    frame_h = max(fy1 - fy0 for _, _, (_, fy0, _, fy1) in frames)
    frame_w = max(fx1 - fx0 for _, _, (fx0, _, fx1, _) in frames)
    place = np.zeros((len(frames), frame_h, frame_w + min(max(radii), frame_w - 1)), dtype=bool)
    acc = np.zeros_like(place)
    targets = []
    for k, (b, _, (fx0, fy0, fx1, fy1)) in enumerate(frames):
        x0, y0, ia, ja, rows, cols = entries[b]
        ra, rb = _span(pattern_y, fy0 - y0, fy1 - y0, ia, ia + rows)
        ca, cb = _span(pattern_x, fx0 - x0, fx1 - x0, ja, ja + cols)
        if ra < rb and ca < cb:
            to = _block(_index(pattern_y, ra, rb, y0 - fy0), _index(pattern_x, ca, cb, x0 - fx0))
            view = isinstance(to[0], slice) and isinstance(to[1], slice)
            targets.append((place[k], to, view, b, slice(ra - ia, rb - ia), slice(ca - ja, cb - ja)))
    for n, radius in enumerate(radii):
        for frame, to, view, b, block_rows, block_cols in targets:
            if view:
                fill(n, b, block_rows, block_cols, frame[to])
            else:
                bits = np.empty((block_rows.stop - block_rows.start, block_cols.stop - block_cols.start), dtype=bool)
                fill(n, b, block_rows, block_cols, bits)
                frame[to] = bits
        _disk_sum(place, radius, bool, out=acc, width=frame_w)
    for k, (b, (wx0, wy0, wx1, wy1), (fx0, fy0, _, _)) in enumerate(frames):
        out[b] = wx0, wy0, acc[k, wy0 - fy0 : wy1 - fy0, wx0 - fx0 : wx1 - fx0]
    return out


def _decode_window(
    stack: BitPlaneStack, spec: WindowSpec, canvas_width: int, canvas_height: int, mode: str
) -> tuple[int, int, np.ndarray]:
    """What `decode_to_canvas` paints, as (x, y, pixels): the canvas
    position of the window's top-left pixel and the pixels there.  The
    window is the box padded by the largest radius a set bit paints, cut
    to the canvas; a stack that paints nothing there gives an empty
    0 x 0 window at (0, 0).  It is `_paint_windows` on a batch of one:
    each painting plane with a set bit is OR-reduced over the runs of
    cells that share a pixel (`np.logical_or.reduceat`), and is a layer."""
    num, den = spec.min_scale_fraction()
    box = spec.box
    (starts_y, pattern_y), (starts_x, pattern_x) = (
        _pattern(box.height, spec.norm_height), _pattern(box.width, spec.norm_width))
    radii, planes = [], []
    for plane, bin_radius in zip(stack.planes, stack.scheme.radii):
        painted = _painted_radius(bin_radius, mode, num, den)
        if painted is None or not plane.any():
            continue
        if len(pattern_x) < spec.norm_width:
            plane = np.logical_or.reduceat(plane, starts_x, axis=1)
        if len(pattern_y) < spec.norm_height:
            plane = np.logical_or.reduceat(plane, starts_y, axis=0)
        radii.append(painted)
        planes.append(plane)

    def fill(n, b, rows, cols, out):
        np.copyto(out, planes[n][rows, cols])

    entry = (box.x0, box.y0, 0, 0, len(pattern_y), len(pattern_x))
    return _paint_windows(
        [entry], radii, fill, pattern_y, pattern_x, (box.width, box.height),
        max(radii, default=0), canvas_width, canvas_height,
    )[0]


def decode_to_canvas(
    stack: BitPlaneStack,
    spec: WindowSpec,
    canvas_width: int,
    canvas_height: int,
    mode: str = "conservative",
) -> BinaryMask:
    """Paint decoded disks back onto the full image canvas.

    Each set bit maps to the image pixel `encode_window` sampled its
    cell from, and paints the disk `codec._painted_radius` gives its bin
    at the scale `spec.min_scale_fraction()`.  Disks extend beyond the
    box freely and are clipped only at the canvas edge.  The decode is
    `_decode_window`, a sweep's batch of one: each painting plane is
    OR-reduced over the cells that share a pixel, placed into one frame
    (the window, the box padded by the largest painted radius and cut
    to the canvas, grown to the set cells within that radius of the
    canvas) and painted by one `codec._disk_sum` call; the window is
    then pasted onto an empty canvas.
    """
    if _integer(canvas_width, "canvas width") < 1 or _integer(canvas_height, "canvas height") < 1:
        raise ValueError("canvas dimensions must be >= 1")
    if (stack.height, stack.width) != (spec.norm_height, spec.norm_width):
        raise ValueError("stack dimensions do not match the normalized window")
    x, y, window = _decode_window(stack, spec, canvas_width, canvas_height, mode)
    canvas = np.zeros((canvas_height, canvas_width), dtype=bool)
    canvas[y : y + window.shape[0], x : x + window.shape[1]] = window
    return BinaryMask(_Adopted(canvas))


def robustness_sweep(
    full_mask: BinaryMask,
    base_box: Box,
    perturbations: Sequence[Perturbation],
    scheme: QuantizationScheme | None = None,
    norm_size: tuple[int, int] | None = None,
    mode: str = "conservative",
) -> list[RobustnessRecord]:
    """Run the encode/decode experiment under each perturbation.

    `norm_size` of None keeps every window at its native (unit-scale)
    resolution, under which the identity perturbation reproduces the
    exact interior roundtrip.  Records are emitted in input order.
    `scheme` of None is the CLI's default, 5 bins spread over radius 13
    (r_K = 10).  The one transform is capped at the least value the
    windows read of r_K, at most the raster's reach.
    """
    if scheme is None:
        scheme = make_uniform_scheme(DEFAULT_BINS, DEFAULT_RADIUS)
    target = interior_mask(full_mask)
    height, width = full_mask.pixels.shape
    specs = []
    for pert in perturbations:
        box = perturb_box(base_box, pert)
        norm_w, norm_h = norm_size if norm_size is not None else (box.width, box.height)
        specs.append(WindowSpec(box, norm_w, norm_h))
    need = max((_read_cap(spec, scheme.radii[-1]) for spec in specs), default=1)
    full = truncated_edt(full_mask, min(_reach(height, width), need))

    decoded = _decode_sweep(full, specs, scheme, mode)

    # Every unclipped window, then its cut to the box, in one IoU matrix.
    windows = []
    for spec, (x, y, pixels) in zip(specs, decoded):
        box = spec.box
        x0, y0 = max(box.x0 - x, 0), max(box.y0 - y, 0)
        inside = pixels[y0 : max(box.y1 - y, 0), x0 : max(box.x1 - x, 0)]
        windows += [(x, y, pixels), (x + x0, y + y0, inside)]
    ious = _iou_matrix(_local_masks(windows), _local_masks([(0, 0, target.pixels)]))[:, 0].tolist()
    return [
        RobustnessRecord(pert.dx, pert.dy, pert.sx, pert.sy, beyond, inside)
        for pert, beyond, inside in zip(perturbations, ious[::2], ious[1::2])
    ]


def _decode_sweep(full: TruncatedDistanceMap, specs, scheme: QuantizationScheme, mode: str):
    """`_decode_window(encode_window(full, spec, scheme), spec, ...)` for
    every spec, as (x, y, pixels), a chunk of windows at a time.

    Windows sharing a (norm size, box size) share a scale, painted radii
    and a cell -> pixel pattern, so they are painted together,
    `_CHUNK_CELLS` padded frame cells at a time.  Cells sharing a pixel
    sample the same value, so a window is read on the pattern's pixels,
    which gives its planes already OR-reduced: a view of the transform
    where the pattern is contiguous (unit scale and upsampling), a
    gather where it is not.  Cells off the image read 0 and paint
    nothing, so only the on-image block is read.  Each layer is the set
    v >= t_n of a painting bin n, by `encode_window`'s thresholds t_n,
    one compare: painted radii grow with n, so the union of the disks
    around these nested sets is the union around the bins
    t_n <= v < t_{n+1}.  The group pads every window by the largest
    radius a bin the transform can reach paints, which may exceed the
    single window's pad; the margin holds no set pixel, so the records
    are those of the per-window decode.
    """
    height, width = full.values.shape
    decoded = [(0, 0, _EMPTY)] * len(specs)
    groups: dict[tuple[int, int, int, int], list[int]] = {}
    for k, spec in enumerate(specs):
        groups.setdefault((spec.norm_width, spec.norm_height, spec.box.width, spec.box.height), []).append(k)
    for (norm_w, norm_h, box_w, box_h), members in groups.items():
        spec = specs[members[0]]
        num, den = spec.min_scale_fraction()
        painted = [_painted_radius(r, mode, num, den) for r in scheme.radii[1:]]
        thresholds = [_read_cap(spec, r) for r in scheme.radii[1:]]
        bins = [(p, t) for p, t in zip(painted, thresholds) if p is not None and t <= full.radius_cap]
        if not bins:
            continue
        pad = bins[-1][0]
        _, pattern_y = _pattern(box_h, norm_h)
        _, pattern_x = _pattern(box_w, norm_w)
        frame_h, frame_w = min(box_h + 2 * pad, height), min(box_w + 2 * pad, width)
        chunk = max(1, _CHUNK_CELLS // (frame_h * (frame_w + min(pad, frame_w - 1))))
        for first in range(0, len(members), chunk):
            batch = members[first : first + chunk]
            entries, values = [], []
            for k in batch:
                x0, y0 = specs[k].box.x0, specs[k].box.y0
                ia, ib = _span(pattern_y, -y0, height - y0)
                ja, jb = _span(pattern_x, -x0, width - x0)
                if ia < ib and ja < jb:
                    at = _block(_index(pattern_y, ia, ib, y0), _index(pattern_x, ja, jb, x0))
                    values.append(full.values[at])
                else:
                    values.append(np.zeros((0, 0), dtype=np.int32))
                entries.append((x0, y0, ia, ja, ib - ia, jb - ja))
            top = max(int(v.max(initial=0)) for v in values)
            layers = [(p, t) for p, t in bins if t <= top]

            def fill(n, b, rows, cols, out):
                np.greater_equal(values[b][rows, cols], layers[n][1], out=out)

            windows = _paint_windows(
                entries, [p for p, _ in layers], fill, pattern_y, pattern_x, (box_w, box_h),
                pad, width, height,
            )
            for k, window in zip(batch, windows):
                decoded[k] = window
    return decoded
