"""Truncated Euclidean distance transform of binary masks.

The distance source set Q contains every background pixel plus every
object pixel that touches background through 4-adjacency or lies on the
image border.  For each pixel p the transform stores

    D(p) = min(ceil(min_{q in Q} d(p, q)), R)

with d measured between pixel centers, so D is integer-valued, zero
exactly on Q, and capped at the truncation radius R.  Two independent
routes are provided, and they agree bit for bit.  `truncated_edt` takes
the nearest Q pixel from the exact feature transform, forms the squared
distance s in integers, and reads ceil(sqrt(s)) capped at R off a table
of squares: it is the count of k^2 < s over k = 0 .. min(R, reach) - 1,
where reach bounds every rounded-up distance on the raster.  No float
enters.  `brute_force_edt` minimizes over Q literally and rounds up
with `math.isqrt`; it is the reference in tests and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid import BinaryMask, Box, _frozen_raster, _reach, sample_raster


@dataclass(frozen=True, eq=False)
class BoundarySet:
    """Membership raster of the distance source set Q."""

    member: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "member", _frozen_raster(self.member, bool))


@dataclass(frozen=True, eq=False)
class TruncatedDistanceMap:
    """Integer distance raster together with its truncation radius."""

    values: np.ndarray
    radius_cap: int

    def __post_init__(self):
        if not isinstance(self.radius_cap, (int, np.integer)) or self.radius_cap < 1:
            raise ValueError(f"radius cap must be a positive integer, got {self.radius_cap!r}")
        object.__setattr__(self, "radius_cap", int(self.radius_cap))
        values = _frozen_raster(self.values, np.int32, self.radius_cap, "distance values")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def boundary_set(mask: BinaryMask) -> BoundarySet:
    """Distance source set: background plus 4-boundary object pixels.

    An object pixel belongs to Q when any of its four edge neighbors is
    background or falls outside the image.
    """
    m = mask.pixels
    padded = np.pad(m, 1, constant_values=False)
    interior4 = (
        padded[:-2, 1:-1]
        & padded[2:, 1:-1]
        & padded[1:-1, :-2]
        & padded[1:-1, 2:]
    )
    return BoundarySet(~(m & interior4))


def interior_mask(mask: BinaryMask) -> BinaryMask:
    """Object pixels that are not in the distance source set Q.

    This is exactly the region a conservative decode reconstructs.
    """
    return BinaryMask(mask.pixels & ~boundary_set(mask).member)


def truncated_edt(mask: BinaryMask, radius_cap: int) -> TruncatedDistanceMap:
    """Exact truncated distance transform of a mask.

    Uses the exact Euclidean feature transform to find the nearest Q
    pixel of every pixel, then takes the integer ceiling of the exact
    distance and truncates at `radius_cap`, in integers only.  Pixels
    in Q (including all background) get value 0.
    """
    if radius_cap < 1:
        raise ValueError(f"radius cap must be >= 1, got {radius_cap}")
    q = boundary_set(mask).member
    h, w = q.shape
    qy, qx = ndimage.distance_transform_edt(~q, return_indices=True, return_distances=False)
    d2 = (qy - np.arange(h)[:, None]) ** 2
    d2 += (qx - np.arange(w)) ** 2
    # k^2 < d2 exactly for k < ceil(sqrt(d2)); no rounded-up distance
    # exceeds the reach, so the table never needs to be longer.
    squares = np.arange(min(radius_cap, _reach(h, w))) ** 2
    return TruncatedDistanceMap(np.searchsorted(squares, d2), radius_cap)


def brute_force_edt(mask: BinaryMask, radius_cap: int) -> TruncatedDistanceMap:
    """Reference truncated distance transform.

    Minimizes the squared center distance over every pixel of Q
    literally, pixel block by pixel block, and applies the integer
    ceiling through `math.isqrt` (ceil(sqrt(s)) = isqrt(s - 1) + 1 for
    s >= 1).  Quadratic in the worst case; intended for verification,
    not production use.
    """
    if radius_cap < 1:
        raise ValueError(f"radius cap must be >= 1, got {radius_cap}")
    q = boundary_set(mask).member
    out = np.zeros(mask.pixels.shape, dtype=np.int32)
    py, px = np.nonzero(~q)
    if py.size == 0:
        return TruncatedDistanceMap(out, radius_cap)
    qy, qx = np.nonzero(q)
    qy = qy.astype(np.int64)
    qx = qx.astype(np.int64)
    step = max(1, min(2048, 4_000_000 // qy.size))
    for start in range(0, py.size, step):
        yy = py[start : start + step].astype(np.int64)
        xx = px[start : start + step].astype(np.int64)
        dy = yy[:, None] - qy[None, :]
        dx = xx[:, None] - qx[None, :]
        d2 = (dy * dy + dx * dx).min(axis=1)
        vals = [min(math.isqrt(int(s) - 1) + 1, radius_cap) for s in d2]
        out[yy, xx] = vals
    return TruncatedDistanceMap(out, radius_cap)


def edt_with_external_boundary(full_mask: BinaryMask, window: Box, radius_cap: int) -> TruncatedDistanceMap:
    """Window view of the full-image transform.

    Distances are computed against the boundary set of `full_mask` on
    the full grid, then cropped to `window`, so object structure outside
    the window still shapes the values inside it.  Out-of-image window
    pixels are background and read 0.
    """
    full = truncated_edt(full_mask, radius_cap)
    values = sample_raster(full.values, window, window.width, window.height, 0)
    return TruncatedDistanceMap(values, radius_cap)
