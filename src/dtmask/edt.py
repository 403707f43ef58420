"""Truncated Euclidean distance transform of binary masks.

The distance source set Q contains every background pixel plus every
object pixel that touches background through 4-adjacency or lies on the
image border.  For each pixel p the transform stores

    D(p) = min(ceil(min_{q in Q} d(p, q)), R)

with d measured between pixel centers, so D is integer-valued, zero
exactly on Q, and capped at the truncation radius R.  Two independent
routes are provided, and they agree bit for bit.

`truncated_edt` works in integers only, inside the box: the bounding
box of the non-Q pixels plus a one-pixel ring.  Every pixel outside the
box is in Q and reads 0, and the nearest Q pixel of any pixel inside
lies in the box, because clamping a Q pixel onto the ring, which is all
Q, moves it no farther away.  Values are capped at the band
C = min(R, reach), where reach bounds every rounded-up distance within
the box.  It forms squared distances s and reads ceil(sqrt(s)) capped
at C off a table of squares: the count of k^2 < s over k = 0 .. C - 1.
A band of at most `BAND_LIMIT` takes the separable transform of
Felzenszwalb and Huttenlocher cut off at C: a column pass that counts
each pixel's column distance to Q up to C in uint8, then a row pass
over the offsets |dx| < C, in uint8 while C^2 <= 255 and in uint16
above, block by block of `ROW_BLOCK` rows.  Its cost grows with C, so a
wider band, which an unbounded `dt --radius` or a strongly downscaled
boxsim window asks for, takes the nearest Q pixel from scipy's exact
feature transform, whose cost does not depend on C.

`brute_force_edt` minimizes over Q literally and rounds up with
`math.isqrt`; it is the reference in tests and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid import BinaryMask, Box, _Adopted, _Raster, _frozen_raster, _integer, _reach, sample_raster

# Widest band C taken by the separable passes.  Their cost grows with C
# up to the thickest object's column depth, and the feature transform's
# does not.  With the earlier int16 row pass over the whole raster, the
# two took the same time between C = 32 and C = 40 on thick blobs of
# 768^2 and 1200^2.  The cropped, narrow, blocked passes still led at
# C = 64 there (1200^2: 59 against 98 ms), so the crossover now lies
# higher; no workload yet reaches a band above 40 to place it.  Any
# C <= 255 keeps the column distances in uint8 and C^2 in uint16.
BAND_LIMIT = 40

# Rows per block of the row pass, whose few narrow arrays then stay in
# cache across the offsets.  64 to 256 rows took the same time on thick
# 768^2 and 1200^2 blobs; the whole 1200^2 raster at once took 2.2x.
ROW_BLOCK = 128


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
    return BinaryMask(_Adopted(~(m & interior4)))


def interior_mask(mask: BinaryMask) -> BinaryMask:
    """Object pixels that are not in the distance source set Q.

    This is exactly the region a conservative decode reconstructs.
    """
    return BinaryMask(_Adopted(mask.pixels & ~boundary_set(mask).pixels))


def truncated_edt(mask: BinaryMask, radius_cap: int) -> TruncatedDistanceMap:
    """Exact truncated distance transform of a mask, in integers only.

    Values are capped at the band C = min(`radius_cap`, reach of the
    box).  The box is the bounding box of the non-Q pixels plus a
    one-pixel ring; every pixel outside it reads 0.  A band of at most
    `BAND_LIMIT` takes `_band_squared_distances`; a wider one takes the
    nearest Q pixel from scipy's exact feature transform.  Pixels in Q
    (including all background) get value 0.
    """
    radius_cap = _radius_cap(radius_cap)
    q = boundary_set(mask).pixels
    rows = np.flatnonzero(~q.all(axis=1))
    if rows.size == 0:
        return TruncatedDistanceMap(_Adopted(np.zeros(q.shape, np.int32)), radius_cap)
    cols = np.flatnonzero(~q.all(axis=0))
    # Q covers the image border, so the ring lies in the image; and it
    # is all Q, so a Q pixel outside the box, clamped onto the ring,
    # comes no farther from any pixel inside.
    box = np.s_[rows[0] - 1 : rows[-1] + 2, cols[0] - 1 : cols[-1] + 2]
    q = q[box]
    h, w = q.shape
    band = min(radius_cap, _reach(h, w))
    if band <= BAND_LIMIT:
        blocks, top = _band_squared_distances(q, band), band * band
    else:
        qy, qx = ndimage.distance_transform_edt(~q, return_indices=True, return_distances=False)
        d2 = (qy - np.arange(h)[:, None]) ** 2
        d2 += (qx - np.arange(w)) ** 2
        np.minimum(d2, band * band, out=d2)
        blocks, top = [(0, d2)], int(d2.max())
    # k^2 < s exactly for k < ceil(sqrt(s)), so counting the squares
    # below each s = 0 .. top gives ceil(sqrt(s)) capped at the band.
    ceil_sqrt = np.searchsorted(np.arange(band) ** 2, np.arange(top + 1)).astype(np.int32)
    out = np.zeros(mask.pixels.shape, np.int32)
    inside = out[box]
    for start, d2 in blocks:
        inside[start : start + len(d2)] = np.take(ceil_sqrt, d2)
    return TruncatedDistanceMap(_Adopted(out), radius_cap)


def _band_squared_distances(q: np.ndarray, band: int):
    """Squared distances to Q, capped at band^2, block by block of rows.

    `q` is a box whose border is all Q.  Returns an iterator of
    (first row, d2) pairs, each d2 covering up to `ROW_BLOCK` rows, in
    uint8 when band^2 <= 255, else in uint16.

    Column pass, run at once: `g` counts the k < band for which the
    column distance to Q exceeds k, so it is min(band, column distance),
    built by eroding the non-Q runs one row up and down per step.  Row
    pass, run as each block is taken: d2 starts at g^2 and, for each
    offset dx, folds in min(g(x - dx)^2, g(x + dx)^2, band^2 - dx^2)
    + dx^2.  The cap keeps every sum within band^2, so nothing wraps,
    and d2 stays exact below band^2 because d2 <= g^2 <= band^2 from
    the start.  Offsets at or beyond band only give values >= band^2,
    beyond the block's g.max() none can undercut g(x)^2, and beyond
    (width - 1) // 2 none can undercut the nearer end of the row.  The
    rows of a block are run as one flat array: a shift that reaches past
    the end of a row lands in the next or previous one, at an offset
    beyond that row's own Q end, so it never undercuts.
    """
    nq = ~q
    run = nq.copy()
    g = nq.astype(np.uint8)
    for k in range(1, band):
        run[k:] &= nq[:-k]
        run[:-k] &= nq[k:]
        if not run.any():
            break
        g += run.view(np.uint8)
    kind = np.uint8 if band * band <= np.iinfo(np.uint8).max else np.uint16
    top = kind(band * band)
    offsets = min(band, (g.shape[1] - 1) // 2 + 1)

    def row_pass(depth):
        d2 = depth.astype(kind)
        d2 *= d2
        flat = d2.reshape(-1)
        g2 = flat.copy()
        near, cap = np.empty((2, flat.size), kind)
        for dx in range(1, min(offsets, int(depth.max()))):
            far, n = kind(dx * dx), flat.size - 2 * dx
            np.minimum(g2[:n], g2[2 * dx :], out=near[:n])
            # a filled array: numpy's minimum against a scalar is ten times slower
            cap[:n] = top - far
            np.minimum(near[:n], cap[:n], out=near[:n])
            near[:n] += far
            np.minimum(flat[dx : dx + n], near[:n], out=flat[dx : dx + n])
        return d2

    return ((start, row_pass(g[start : start + ROW_BLOCK])) for start in range(0, len(g), ROW_BLOCK))


def brute_force_edt(mask: BinaryMask, radius_cap: int) -> TruncatedDistanceMap:
    """Reference truncated distance transform.

    Minimizes the squared center distance over every pixel of Q
    literally, pixel block by pixel block, and applies the integer
    ceiling through `math.isqrt` (ceil(sqrt(s)) = isqrt(s - 1) + 1 for
    s >= 1).  The pair arithmetic runs in int32 when both sides are at
    most 32768, where dy^2 + dx^2 <= 2 * 32767^2 < 2**31, else in int64.
    Quadratic in the worst case; intended for verification, not
    production use.
    """
    radius_cap = _radius_cap(radius_cap)
    q = boundary_set(mask).pixels
    out = np.zeros(mask.pixels.shape, dtype=np.int32)
    py, px = np.nonzero(~q)
    if py.size == 0:
        return TruncatedDistanceMap(out, radius_cap)
    pair = np.int32 if max(q.shape) <= 32768 else np.int64
    qy, qx = np.nonzero(q)
    qy = qy.astype(pair)
    qx = qx.astype(pair)
    step = max(1, min(2048, 4_000_000 // qy.size))
    for start in range(0, py.size, step):
        yy = py[start : start + step].astype(pair)
        xx = px[start : start + step].astype(pair)
        dy = yy[:, None] - qy[None, :]
        dx = xx[:, None] - qx[None, :]
        dy *= dy
        dx *= dx
        dy += dx
        d2 = dy.min(axis=1)
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
