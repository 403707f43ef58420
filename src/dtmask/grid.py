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
from dataclasses import dataclass

import numpy as np

# Labels are stored as int32; larger values would wrap and merge instances.
MAX_LABEL = int(np.iinfo(np.int32).max)


class _Adopted:
    """An array a module has just built and hands to a value type to keep.

    `_frozen_raster` freezes it in place instead of copying it.  Only an
    array that nothing else holds writable, and that its builder drops,
    may be wrapped; the public constructors always copy, so a caller's
    array can never change a value.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen_raster(values, dtype, high=None, name="values", bins=None) -> np.ndarray:
    """Copy `values` into a read-only array of `dtype`: a 2-D raster, or
    with `bins` set a (bins, height, width) stack of planes.  An
    `_Adopted` array of `dtype` is frozen in place, without a copy.

    With `high` set, values must lie in [0, min(high, max of dtype)],
    checked before the cast so that nothing wraps.
    """
    adopted = isinstance(values, _Adopted)
    arr = np.asarray(values.array if adopted else values)
    if bins is None:
        if arr.ndim != 2 or 0 in arr.shape:
            raise ValueError("raster must be 2-D with positive height and width")
    elif arr.ndim != 3 or arr.shape[0] != bins:
        raise ValueError(f"expected a (bins, height, width) stack with {bins} planes")
    elif 0 in arr.shape:
        raise ValueError("planes must have positive height and width")
    if high is not None:
        high = min(high, int(np.iinfo(dtype).max))
        if arr.min() < 0:
            raise ValueError(f"{name} must be non-negative")
        if arr.max() > high:
            raise ValueError(f"{name} must not exceed {high}")
    arr = np.ascontiguousarray(arr, dtype=dtype) if adopted else np.array(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


class _Raster:
    """A value type whose `height` and `width` are the last two axes of
    the array in the field its subclass names as `_array_field`."""

    @property
    def height(self) -> int:
        return getattr(self, self._array_field).shape[-2]

    @property
    def width(self) -> int:
        return getattr(self, self._array_field).shape[-1]


def _integer(value, what: str) -> int:
    """`value` as an int; a float or any non-integer is a ValueError."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


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
class BinaryMask(_Raster):
    """Immutable 2-D boolean raster; True marks object pixels."""

    pixels: np.ndarray
    _array_field = "pixels"

    def __post_init__(self):
        object.__setattr__(self, "pixels", _frozen_raster(self.pixels, bool))

    @property
    def area(self) -> int:
        """Number of object pixels."""
        return int(self.pixels.sum())


@dataclass(frozen=True, eq=False)
class LabelMap(_Raster):
    """Immutable instance segmentation raster.

    Label 0 is background; every positive label is one instance.
    """

    labels: np.ndarray
    _array_field = "labels"

    def __post_init__(self):
        labels = _frozen_raster(self.labels, np.int32, MAX_LABEL, "labels")
        object.__setattr__(self, "labels", labels)

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
            object.__setattr__(self, name, _integer(getattr(self, name), f"box coordinate {name}"))
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

    A mask with the box's extent is anchored to the box; any other mask
    is anchored to the full canvas and must match the image.  Proposal
    files follow the same rule, so the anchor is never stored.
    """

    box: Box
    score: float
    mask: BinaryMask | None = None

    def __post_init__(self):
        s = float(self.score)
        if not (0.0 <= s <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score!r}")
        object.__setattr__(self, "score", s)

    @property
    def mask_anchor(self) -> str:
        """The mask's anchor: "box" when it has the box's extent, else "canvas"."""
        mask, box = self.mask, self.box
        if mask is not None and (mask.height, mask.width) == (box.height, box.width):
            return "box"
        return "canvas"

    @property
    def _name(self) -> str:
        b = self.box
        return f"the proposal with box ({b.x0}, {b.y0}, {b.x1}, {b.y1})"

    def canvas_window(self, width: int, height: int) -> tuple[int, int, np.ndarray]:
        """The part of the proposal mask that lies on a width x height canvas.

        Returns (x, y, pixels): the canvas position of the window's
        top-left pixel and a read-only view of the mask pixels there.  A
        box-anchored mask is clipped to the canvas without building one;
        a box entirely off the canvas gives an empty 0 x 0 window at
        (0, 0).  Any other mask must match the canvas.  Raises ValueError
        when the proposal carries no mask.
        """
        if self.mask is None:
            raise ValueError(f"{self._name} has no mask")
        if self.mask_anchor == "canvas":
            if (self.mask.height, self.mask.width) != (height, width):
                raise ValueError(
                    f"mask shape {self.mask.width}x{self.mask.height} of {self._name} "
                    f"matches neither its box extent {self.box.width}x{self.box.height} "
                    f"nor the canvas {width}x{height}"
                )
            return 0, 0, self.mask.pixels
        part = _overlap(self.box, width, height)
        if part is None:
            return 0, 0, self.mask.pixels[:0, :0]
        (rows, cols), in_box = part
        return cols.start, rows.start, self.mask.pixels[in_box]

    def canvas_mask(self, width: int, height: int) -> BinaryMask:
        """Materialize the proposal mask on a width x height canvas.

        Box-anchored masks are pasted at the box position and clipped;
        any other mask must already match the canvas.  Raises ValueError
        when the proposal carries no mask.
        """
        x, y, window = self.canvas_window(width, height)
        if self.mask_anchor == "canvas":
            return self.mask  # canvas_window checked that it fits the canvas
        out = np.zeros((height, width), dtype=bool)
        out[y : y + window.shape[0], x : x + window.shape[1]] = window
        return BinaryMask(out)


def extract_instance(label_map: LabelMap, instance_id: int) -> BinaryMask:
    """Binary mask of one instance of a label map."""
    if _integer(instance_id, "instance id") <= 0:
        raise ValueError(f"instance id must be positive, got {instance_id}")
    pixels = label_map.labels == instance_id
    if not pixels.any():
        raise ValueError(f"instance id {instance_id} not present in label map")
    return BinaryMask(_Adopted(pixels))


def _nearest_pixels(start: int, length: int, cells: int) -> np.ndarray:
    # Pixel of [start, start + length) whose center is nearest each of
    # `cells` cell centers: start + floor((i + 0.5) * length / cells).
    return start + ((2 * np.arange(cells, dtype=np.int64) + 1) * length) // (2 * cells)


def sample_raster(
    raster: np.ndarray, box: Box, out_width: int, out_height: int
) -> np.ndarray:
    """Nearest-neighbor sample of `box` onto an out_width x out_height grid.

    Each cell copies the pixel whose center is nearest its own, ties
    toward the lower index; cells whose pixel is off the raster read 0.
    Only the sampled pixels are gathered, never the box.
    """
    if _integer(out_width, "resize target width") < 1 or _integer(out_height, "resize target height") < 1:
        raise ValueError("resize target must have positive dimensions")
    h, w = raster.shape
    ys = _nearest_pixels(box.y0, box.height, out_height)
    xs = _nearest_pixels(box.x0, box.width, out_width)
    out = np.zeros((out_height, out_width), dtype=raster.dtype)
    # The pixel indices increase, so the cells on the raster form one block.
    r0, r1 = np.searchsorted(ys, (0, h))
    c0, c1 = np.searchsorted(xs, (0, w))
    out[r0:r1, c0:c1] = raster[np.ix_(ys[r0:r1], xs[c0:c1])]
    return out
