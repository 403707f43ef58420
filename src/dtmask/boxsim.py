"""Box-robustness simulation: recover masks beyond a perturbed box.

The experiment mimics a detector handing the codec an imperfect box.
A window around an instance is normalized to a fixed size, encoded
against the true object boundary of the full image (so a box cutting
the object still sees large distances at the cut), decoded back onto
the full canvas where disks may extend past the box, and compared with
the instance interior both with and without clipping to the box.  The
full-image transform is the same for every box of a sweep, so a sweep
computes it once, untruncated, and samples each window's cells from it.

Every numeric step that affects rasters runs in integer arithmetic:
the normalization scale is carried as an exact fraction, value scaling
uses integer ceiling division, and painted disk radii use the codec's
integer round-half-up.  Records are therefore reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    BinaryMask,
    Box,
    _nearest_pixels,
    _overlap,
    _reach,
    rasterize_box,
    sample_raster,
)
from .edt import TruncatedDistanceMap, interior_mask, truncated_edt
from .codec import (
    BitPlaneStack,
    QuantizationScheme,
    _disk_sum,
    _painted_radius,
    encode,
    make_uniform_scheme,
)
from .metrics import mask_iou

DEFAULT_NORM_SIZE = 28


@dataclass(frozen=True)
class WindowSpec:
    """A box in image coordinates plus its normalized window size."""

    box: Box
    norm_width: int = DEFAULT_NORM_SIZE
    norm_height: int = DEFAULT_NORM_SIZE

    def __post_init__(self):
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
        if self.sx <= 0 or self.sy <= 0:
            raise ValueError("scale factors must be positive")


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


def _round_half_up(v: float) -> int:
    return math.floor(v + 0.5)


def perturb_box(box: Box, pert: Perturbation) -> Box:
    """Shift the box center and rescale its extent, then round.

    Coordinates come from round-half-up of center +/- half-extent, so
    sweeps reproduce identically across platforms.  A perturbation that
    rounds the box to zero extent is an error.
    """
    cx = (box.x0 + box.x1) / 2.0
    cy = (box.y0 + box.y1) / 2.0
    half_w = box.width * pert.sx / 2.0
    half_h = box.height * pert.sy / 2.0
    x0 = _round_half_up(cx + pert.dx - half_w)
    x1 = _round_half_up(cx + pert.dx + half_w)
    y0 = _round_half_up(cy + pert.dy - half_h)
    y1 = _round_half_up(cy + pert.dy + half_h)
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"perturbation collapses the box to ({x0}, {y0}, {x1}, {y1})")
    return Box(x0, y0, x1, y1)


def shrink_perturbation(box: Box, pixels: int) -> Perturbation:
    """Perturbation that pulls every side of `box` in by `pixels`."""
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

    `full` is the untruncated transform of the whole image,
    `truncated_edt(mask, grid._reach(h, w))`, so a box cutting the
    object still sees distances to the true object boundary.  Pipeline:
    sample `full` at the box pixels nearest the normalized cells (off the
    image they read 0; memory follows the window, not the box), scale
    values by `spec.min_scale_fraction()` with an exact integer ceiling,
    truncate at the scheme cap, quantize.
    A transform capped below its reach is rejected, since a downscaled
    window would read its capped values as true distances.
    """
    reach = _reach(full.height, full.width)
    if full.radius_cap < reach:
        raise ValueError(f"transform is capped at {full.radius_cap}, below its reach {reach}")
    num, den = spec.min_scale_fraction()
    window = sample_raster(full.values, spec.box, spec.norm_width, spec.norm_height, 0)
    scaled = (window.astype("int64") * num + den - 1) // den
    cap = scheme.radius_cap
    return encode(TruncatedDistanceMap(scaled.clip(max=cap), cap), scheme)


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
    if canvas_width < 1 or canvas_height < 1:
        raise ValueError("canvas dimensions must be >= 1")
    if (stack.height, stack.width) != (spec.norm_height, spec.norm_width):
        raise ValueError("stack dimensions do not match the normalized window")
    num, den = spec.min_scale_fraction()
    box = spec.box
    map_x = _nearest_pixels(box.x0, box.width, spec.norm_width)
    map_y = _nearest_pixels(box.y0, box.height, spec.norm_height)
    canvas = np.zeros((canvas_height, canvas_width), dtype=bool)
    for plane, bin_radius in zip(stack.planes, stack.scheme.radii):
        painted = _painted_radius(bin_radius, mode, num, den)
        if painted is None or not plane.any():
            continue
        ys, xs = np.nonzero(plane)
        # Scatter the mapped centres into a local raster spanning their
        # bounding box padded by the painted radius, cut to the bounding
        # box of the canvas and the centres.  The cut is exact: it keeps
        # every centre and every canvas pixel a disk can reach, and
        # `_disk_sum` clamps the radius to the local raster's reach.
        cy, cx = map_y[ys], map_x[xs]
        x0, y0, x1, y1 = int(cx.min()), int(cy.min()), int(cx.max()) + 1, int(cy.max()) + 1
        span = Box(
            max(x0 - painted, min(x0, 0)),
            max(y0 - painted, min(y0, 0)),
            min(x1 + painted, max(x1, canvas_width)),
            min(y1 + painted, max(y1, canvas_height)),
        )
        local = np.zeros((span.height, span.width), dtype=bool)
        local[cy - span.y0, cx - span.x0] = True
        part = _overlap(span, canvas_width, canvas_height)
        if part is not None:
            on_canvas, in_local = part
            canvas[on_canvas] |= (_disk_sum(local, painted) > 0)[in_local]
    return BinaryMask(canvas)


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
    """
    if scheme is None:
        scheme = make_uniform_scheme(5, 13)
    target = interior_mask(full_mask)
    height, width = full_mask.pixels.shape
    full = truncated_edt(full_mask, _reach(height, width))

    records = []
    for pert in perturbations:
        box = perturb_box(base_box, pert)
        norm_w, norm_h = norm_size if norm_size is not None else (box.width, box.height)
        spec = WindowSpec(box, norm_w, norm_h)
        stack = encode_window(full, spec, scheme)
        beyond = decode_to_canvas(stack, spec, width, height, mode)
        inside = BinaryMask(beyond.pixels & rasterize_box(box, width, height).pixels)
        records.append(
            RobustnessRecord(
                dx=pert.dx,
                dy=pert.dy,
                sx=pert.sx,
                sy=pert.sy,
                iou_beyond=mask_iou(beyond, target),
                iou_inside=mask_iou(inside, target),
            )
        )
    return records
