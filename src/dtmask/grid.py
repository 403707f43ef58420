"""Raster and box geometry shared by every stage of the codec.

Conventions are fixed here once and relied on bit-exactly everywhere
else: rasters are row-major with the origin at the top-left corner,
x grows rightward (columns) and y grows downward (rows), and boxes are
half-open integer rectangles [x0, x1) x [y0, y1).  Pixel (x, y) has its
center at coordinates (x + 0.5, y + 0.5); all distances in this package
are measured between pixel centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Labels are stored as int32; larger values would wrap and merge instances.
MAX_LABEL = int(np.iinfo(np.int32).max)


def _frozen_raster(values, dtype, high=None, name="values") -> np.ndarray:
    """Copy `values` into a read-only 2-D array of `dtype`.

    With `high` set, values must lie in [0, min(high, max of dtype)],
    checked before the cast so that nothing wraps.
    """
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("raster must be 2-D with positive height and width")
    if high is not None:
        high = min(high, int(np.iinfo(dtype).max))
        if arr.min() < 0:
            raise ValueError(f"{name} must be non-negative")
        if arr.max() > high:
            raise ValueError(f"{name} must not exceed {high}")
    arr = np.array(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _reach(height: int, width: int) -> int:
    """Bound on every rounded-up center distance; its disk covers the raster."""
    return math.isqrt((height - 1) ** 2 + (width - 1) ** 2) + 1


def _overlap(box: Box, width: int, height: int):
    """Where `box` meets a width x height raster, or None if it misses.

    Returns (rows, columns) slice pairs in raster and in box coordinates.
    """
    x0, x1 = max(box.x0, 0), min(box.x1, width)
    y0, y1 = max(box.y0, 0), min(box.y1, height)
    if x0 >= x1 or y0 >= y1:
        return None
    on_raster = (slice(y0, y1), slice(x0, x1))
    return on_raster, (slice(y0 - box.y0, y1 - box.y0), slice(x0 - box.x0, x1 - box.x0))


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Immutable 2-D boolean raster; True marks object pixels."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _frozen_raster(self.pixels, bool))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def area(self) -> int:
        """Number of object pixels."""
        return int(self.pixels.sum())


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Immutable instance segmentation raster.

    Label 0 is background; every positive label is one instance.
    """

    labels: np.ndarray

    def __post_init__(self):
        labels = _frozen_raster(self.labels, np.int32, MAX_LABEL, "labels")
        object.__setattr__(self, "labels", labels)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def instance_ids(self) -> list[int]:
        """Sorted list of positive labels present in the map."""
        ids = np.unique(self.labels)
        return [int(i) for i in ids if i > 0]


@dataclass(frozen=True)
class Box:
    """Half-open axis-aligned box [x0, x1) x [y0, y1) on the pixel grid."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        for name in ("x0", "y0", "x1", "y1"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"box coordinate {name} must be an integer")
            object.__setattr__(self, name, int(v))
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(
                f"degenerate box: ({self.x0}, {self.y0}, {self.x1}, {self.y1})"
            )

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def box_area(self) -> int:
        return self.width * self.height


@dataclass(frozen=True, eq=False)
class BoxProposal:
    """A scored detection: a box, optionally carrying a mask.

    The mask is anchored either to the full canvas ("canvas", mask shape
    equals the image) or to the box itself ("box", mask shape equals the
    box extent).
    """

    box: Box
    score: float
    mask: BinaryMask | None = None
    mask_anchor: str = field(default="canvas")

    def __post_init__(self):
        s = float(self.score)
        if not (0.0 <= s <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score!r}")
        object.__setattr__(self, "score", s)
        if self.mask_anchor not in ("canvas", "box"):
            raise ValueError(f"unknown mask anchor {self.mask_anchor!r}")
        if self.mask is not None and self.mask_anchor == "box":
            if (self.mask.height, self.mask.width) != (self.box.height, self.box.width):
                raise ValueError("box-anchored mask must match the box extent")

    def canvas_window(self, width: int, height: int) -> tuple[int, int, np.ndarray]:
        """The part of the proposal mask that lies on a width x height canvas.

        Returns (x, y, pixels): the canvas position of the window's
        top-left pixel and a read-only view of the mask pixels there.  A
        box-anchored mask is clipped to the canvas without building one;
        a box entirely off the canvas gives an empty 0 x 0 window at
        (0, 0).  Canvas-anchored masks must already match the canvas
        shape.  Raises ValueError when the proposal carries no mask.
        """
        if self.mask is None:
            raise ValueError("proposal has no mask")
        if self.mask_anchor == "canvas":
            if (self.mask.height, self.mask.width) != (height, width):
                raise ValueError(
                    "canvas-anchored mask shape "
                    f"{self.mask.width}x{self.mask.height} does not match "
                    f"canvas {width}x{height}"
                )
            return 0, 0, self.mask.pixels
        part = _overlap(self.box, width, height)
        if part is None:
            return 0, 0, self.mask.pixels[:0, :0]
        (rows, cols), in_box = part
        return cols.start, rows.start, self.mask.pixels[in_box]

    def canvas_mask(self, width: int, height: int) -> BinaryMask:
        """Materialize the proposal mask on a width x height canvas.

        Canvas-anchored masks must already match the canvas shape.
        Box-anchored masks are pasted at the box position and clipped.
        Raises ValueError when the proposal carries no mask.
        """
        x, y, window = self.canvas_window(width, height)
        if self.mask_anchor == "canvas":
            return self.mask  # canvas_window checked that it fits the canvas
        out = np.zeros((height, width), dtype=bool)
        out[y : y + window.shape[0], x : x + window.shape[1]] = window
        return BinaryMask(out)


def extract_instance(label_map: LabelMap, instance_id: int) -> BinaryMask:
    """Binary mask of one instance of a label map."""
    if instance_id <= 0:
        raise ValueError(f"instance id must be positive, got {instance_id}")
    pixels = label_map.labels == instance_id
    if not pixels.any():
        raise ValueError(f"instance id {instance_id} not present in label map")
    return BinaryMask(pixels)


def crop_raster(raster: np.ndarray, box: Box, pad_value) -> np.ndarray:
    """Crop `box` out of a 2-D raster, padding out-of-range pixels.

    The output always has the box extent; pixels of the box that fall
    outside the raster are filled with `pad_value`.
    """
    h, w = raster.shape
    out = np.full((box.height, box.width), pad_value, dtype=raster.dtype)
    part = _overlap(box, w, h)
    if part is not None:
        on_raster, in_box = part
        out[in_box] = raster[on_raster]
    return out


def crop(mask: BinaryMask, box: Box, pad_value: bool = False) -> BinaryMask:
    """Crop a mask to a box; pixels outside the mask become `pad_value`."""
    return BinaryMask(crop_raster(mask.pixels, box, pad_value))


def _nearest_indices(n_in: int, n_out: int) -> np.ndarray:
    # Source index whose center is nearest to each output pixel center:
    # floor((i + 0.5) * n_in / n_out), kept in pure integer arithmetic.
    return ((2 * np.arange(n_out, dtype=np.int64) + 1) * n_in) // (2 * n_out)


def resize_nearest_raster(raster: np.ndarray, out_width: int, out_height: int) -> np.ndarray:
    """Nearest-neighbor resample of a 2-D raster onto a new grid.

    Output pixel (i, j) copies the input pixel whose center is nearest
    to the output pixel center mapped back into input coordinates.  Ties
    resolve toward the lower index via the floor in `_nearest_indices`.
    """
    if out_width < 1 or out_height < 1:
        raise ValueError("resize target must have positive dimensions")
    h, w = raster.shape
    sy = _nearest_indices(h, out_height)
    sx = _nearest_indices(w, out_width)
    return raster[np.ix_(sy, sx)]


def resize_nearest(mask: BinaryMask, out_width: int, out_height: int) -> BinaryMask:
    return BinaryMask(resize_nearest_raster(mask.pixels, out_width, out_height))


def rasterize_box(box: Box, width: int, height: int) -> BinaryMask:
    """Mask of the box interior on a width x height canvas, clipped."""
    out = np.zeros((height, width), dtype=bool)
    part = _overlap(box, width, height)
    if part is not None:
        out[part[0]] = True
    return BinaryMask(out)
