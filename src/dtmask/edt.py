"""Truncated Euclidean distance transform of binary masks.

The distance source set Q contains every background pixel plus every
object pixel that touches background through 4-adjacency or lies on the
image border.  For each pixel p the transform stores

    D(p) = min(ceil(min_{q in Q} d(p, q)), R)

with d measured between pixel centers, so D is integer-valued, zero
exactly on Q, and capped at the truncation radius R.  Two independent
routes are provided, and they agree bit for bit.

`truncated_edt` works in integers only, within the band
C = min(R, reach), where reach bounds every rounded-up distance on the
raster.  It forms squared distances s and reads ceil(sqrt(s)) capped at
C off a table of squares: the count of k^2 < s over k = 0 .. C - 1.  A
band of at most `BAND_LIMIT` takes the separable transform of
Felzenszwalb and Huttenlocher cut off at C: a column pass that counts
each pixel's column distance to Q up to C, then a row pass over the
offsets |dx| < C.  Its cost grows with C, so a wider band, which an
unbounded `dt --radius` or a strongly downscaled boxsim window asks
for, takes the nearest Q pixel from scipy's exact feature transform,
whose cost does not depend on C.

`brute_force_edt` minimizes over Q literally and rounds up with
`math.isqrt`; it is the reference in tests and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid import BinaryMask, Box, _Raster, _frozen_raster, _integer, _reach, sample_raster

# Widest band C taken by the separable passes.  Their cost grows with C
# up to the thickest object's column depth, and the feature transform's
# does not.  On thick blobs of 768^2 and 1200^2 the two took the same
# time between C = 32 and C = 40 and the passes lost beyond; on fine
# 256^2 masks and 384^2 boxsim scenes the passes stayed ahead up to
# C = 64.  Any C <= 64 keeps the column distances in uint8 and
# g^2 + dx^2 <= 64^2 + 63^2 in int16.
BAND_LIMIT = 40


def _radius_cap(value) -> int:
    """`value` as a truncation radius: an integer >= 1, else a ValueError."""
    cap = _integer(value, "radius cap")
    if cap < 1:
        raise ValueError(f"radius cap must be >= 1, got {cap}")
    return cap


@dataclass(frozen=True, eq=False)
class TruncatedDistanceMap(_Raster):
    """Integer distance raster together with its truncation radius."""

    values: np.ndarray
    radius_cap: int
    _array_field = "values"

    def __post_init__(self):
        object.__setattr__(self, "radius_cap", _radius_cap(self.radius_cap))
        values = _frozen_raster(self.values, np.int32, self.radius_cap, "distance values")
        object.__setattr__(self, "values", values)


def boundary_set(mask: BinaryMask) -> BinaryMask:
    """Distance source set Q: background plus 4-boundary object pixels.

    An object pixel belongs to Q when any of its four edge neighbors is
    background or falls outside the image.  True marks the members.
    """
    m = mask.pixels
    padded = np.pad(m, 1, constant_values=False)
    interior4 = (
        padded[:-2, 1:-1]
        & padded[2:, 1:-1]
        & padded[1:-1, :-2]
        & padded[1:-1, 2:]
    )
    return BinaryMask(~(m & interior4))


def interior_mask(mask: BinaryMask) -> BinaryMask:
    """Object pixels that are not in the distance source set Q.

    This is exactly the region a conservative decode reconstructs.
    """
    return BinaryMask(mask.pixels & ~boundary_set(mask).pixels)


def truncated_edt(mask: BinaryMask, radius_cap: int) -> TruncatedDistanceMap:
    """Exact truncated distance transform of a mask, in integers only.

    Values are capped at the band C = min(`radius_cap`, reach).  A band
    of at most `BAND_LIMIT` takes `_band_squared_distances`; a wider one
    takes the nearest Q pixel from scipy's exact feature transform.
    Pixels in Q (including all background) get value 0.
    """
    radius_cap = _radius_cap(radius_cap)
    q = boundary_set(mask).pixels
    h, w = q.shape
    band = min(radius_cap, _reach(h, w))
    if band <= BAND_LIMIT:
        d2 = _band_squared_distances(q, band)
    else:
        qy, qx = ndimage.distance_transform_edt(~q, return_indices=True, return_distances=False)
        d2 = (qy - np.arange(h)[:, None]) ** 2
        d2 += (qx - np.arange(w)) ** 2
        np.minimum(d2, band * band, out=d2)
    # k^2 < s exactly for k < ceil(sqrt(s)), so counting the squares
    # below each s = 0 .. d2.max() gives ceil(sqrt(s)) capped at the band.
    ceil_sqrt = np.searchsorted(np.arange(band) ** 2, np.arange(int(d2.max()) + 1))
    return TruncatedDistanceMap(np.take(ceil_sqrt.astype(np.int32), d2), radius_cap)


def _band_squared_distances(q: np.ndarray, band: int) -> np.ndarray:
    """Squared distance to Q wherever it is below band^2, else >= band^2.

    Column pass: `g` counts the k < band for which the column distance
    to Q exceeds k, so it is min(band, column distance), built by
    eroding the non-Q runs one row up and down per step.  Row pass: the
    minimum of g(x')^2 + (x - x')^2 over in-image offsets
    |x - x'| < min(band, g.max()).  Offsets at or beyond band only give
    values >= band^2, and beyond g.max() none can undercut g(x)^2, so
    the cut is exact below band^2.  Q covers the border, so every column
    and row meets it in-image.
    """
    nq = ~q
    run = nq.copy()
    g = nq.astype(np.uint8)
    for k in range(1, band):
        run[k:] &= nq[:-k]
        run[:-k] &= nq[k:]
        if not run.any():
            break
        g += run
    g2 = g.astype(np.int16)
    g2 *= g2
    d2 = g2.copy()
    shifted = np.empty_like(g2)
    w = q.shape[1]
    for dx in range(1, min(band, int(g.max()), w)):
        near, far = shifted[:, : w - dx], dx * dx
        np.add(g2[:, dx:], far, out=near)
        np.minimum(d2[:, : w - dx], near, out=d2[:, : w - dx])
        np.add(g2[:, : w - dx], far, out=near)
        np.minimum(d2[:, dx:], near, out=d2[:, dx:])
    return d2


def brute_force_edt(mask: BinaryMask, radius_cap: int) -> TruncatedDistanceMap:
    """Reference truncated distance transform.

    Minimizes the squared center distance over every pixel of Q
    literally, pixel block by pixel block, and applies the integer
    ceiling through `math.isqrt` (ceil(sqrt(s)) = isqrt(s - 1) + 1 for
    s >= 1).  Quadratic in the worst case; intended for verification,
    not production use.
    """
    radius_cap = _radius_cap(radius_cap)
    q = boundary_set(mask).pixels
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
    values = sample_raster(full.values, window, window.width, window.height)
    return TruncatedDistanceMap(values, radius_cap)
