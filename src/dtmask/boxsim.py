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
the raster's reach if that is lower.

Every numeric step that affects rasters runs in integer arithmetic:
the normalization scale is carried as an exact fraction, value scaling
uses integer ceiling division, and painted disk radii use the codec's
integer round-half-up.  Records are therefore reproducible bit for bit.
"""

from __future__ import annotations

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
    _overlap,
    _reach,
    sample_raster,
)
from .edt import TruncatedDistanceMap, interior_mask, truncated_edt
from .codec import (
    DEFAULT_BINS,
    DEFAULT_RADIUS,
    BitPlaneStack,
    QuantizationScheme,
    _disk_sum,
    _painted_radius,
    encode,
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
    image they read 0; memory follows the window, not the box), scale
    values by `spec.min_scale_fraction()` with an exact integer ceiling,
    truncate at the largest bin radius r_K, quantize.
    `full` must be capped at least at min(reach, `_read_cap(spec, r_K)`),
    the least cap that leaves the window unchanged; a transform capped
    below that is rejected, since a capped value would then encode
    below the last bin where the true distance encodes in it.
    """
    cap = scheme.radii[-1]
    need = min(_reach(full.height, full.width), _read_cap(spec, cap))
    if full.radius_cap < need:
        raise ValueError(f"transform is capped at {full.radius_cap}, below the {need} this window reads")
    num, den = spec.min_scale_fraction()
    window = sample_raster(full.values, spec.box, spec.norm_width, spec.norm_height)
    scaled = (window.astype("int64") * num + den - 1) // den
    return encode(TruncatedDistanceMap(scaled.clip(max=cap), cap), scheme)


def _read_cap(spec: WindowSpec, radius: int) -> int:
    """Least stored value that scales to at least `radius` in the
    window: ceil(v * num / den) >= radius exactly when
    v * num > (radius - 1) * den."""
    num, den = spec.min_scale_fraction()
    return (radius - 1) * den // num + 1


def _decode_window(
    stack: BitPlaneStack, spec: WindowSpec, canvas_width: int, canvas_height: int, mode: str
) -> tuple[int, int, np.ndarray]:
    """What `decode_to_canvas` paints, as (x, y, pixels): the canvas
    position of the window's top-left pixel and the pixels there.  The
    window is the box padded by the largest painted radius, cut to the
    canvas; a stack that paints nothing there gives an empty 0 x 0
    window at (0, 0).  Each plane paints in its own frame, the bounding
    box of the window and the plane's mapped centres: it holds every
    centre and every window pixel, so the window cut from it is exact."""
    num, den = spec.min_scale_fraction()
    box = spec.box
    radii = [_painted_radius(r, mode, num, den) for r in stack.scheme.radii]
    paint = [(plane, r) for plane, r in zip(stack.planes, radii) if r is not None and plane.any()]
    pad = max((r for _, r in paint), default=0)
    part = _overlap(Box(box.x0 - pad, box.y0 - pad, box.x1 + pad, box.y1 + pad), canvas_width, canvas_height)
    if not paint or part is None:
        return 0, 0, np.zeros((0, 0), dtype=bool)
    (rows, cols), _ = part
    x, y = cols.start, rows.start
    width, height = cols.stop - x, rows.stop - y
    window = np.zeros((height, width), dtype=bool)
    map_x = _nearest_pixels(box.x0 - x, box.width, spec.norm_width)
    map_y = _nearest_pixels(box.y0 - y, box.height, spec.norm_height)
    for plane, painted in paint:
        ys, xs = np.nonzero(plane)
        cy, cx = map_y[ys], map_x[xs]
        x0, y0 = min(int(cx.min()), 0), min(int(cy.min()), 0)
        x1, y1 = max(int(cx.max()) + 1, width), max(int(cy.max()) + 1, height)
        local = np.zeros((y1 - y0, x1 - x0), dtype=bool)
        local[cy - y0, cx - x0] = True
        window |= _disk_sum(local, painted, bool)[-y0 : height - y0, -x0 : width - x0]
    return x, y, window


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
    box freely and are clipped only at the canvas edge.
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

    # Every unclipped window, then its cut to the box, in one IoU matrix.
    windows = []
    for spec in specs:
        x, y, pixels = _decode_window(encode_window(full, spec, scheme), spec, width, height, mode)
        box = spec.box
        x0, y0 = max(box.x0 - x, 0), max(box.y0 - y, 0)
        inside = pixels[y0 : max(box.y1 - y, 0), x0 : max(box.x1 - x, 0)]
        windows += [(x, y, pixels), (x + x0, y + y0, inside)]
    ious = _iou_matrix(_local_masks(windows), _local_masks([(0, 0, target.pixels)]))[:, 0].tolist()
    return [
        RobustnessRecord(pert.dx, pert.dy, pert.sx, pert.sy, beyond, inside)
        for pert, beyond, inside in zip(perturbations, ious[::2], ious[1::2])
    ]
