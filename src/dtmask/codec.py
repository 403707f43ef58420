"""Bit-plane codec for truncated distance maps.

Encoding quantizes each distance value into one of K bins by a strictly
increasing radius table r_1 = 0 < r_2 < ... < r_K and stores a one-hot
stack of K binary planes.  The table is the whole scheme: every value
from r_K on lands in the last bin, so a distance map truncated at any
cap >= r_K gives the same planes, and a truncation radius R only shapes
the radii `make_uniform_scheme` spreads.  Decoding paints a disk of the
bin radius around every set bit and unions the results; because the
table representative never exceeds the true value, a conservative decode
(disk radius r - 1) can never cross the object boundary, while a literal
decode (disk radius r) fills bins exactly.  A soft decoder accepts bit
planes or real-valued plane scores, sums disk-kernel responses through a
sigmoid, and thresholds; on clean one-hot input it reproduces the hard
decoder bit for bit.  It never evaluates the sigmoid on a raster: the
sum is compared with t*, the least float64 whose sigmoid reaches the
threshold, found once per call by bisection over the float64 order.

Every disk is painted by one primitive, `_disk_sum`, which grows a row
run one column each way per step and adds it to every output row whose
disk half-width it has reached.  The hard decoders only ask where a disk
lands, and run it with a bool accumulator.  Bit planes, the corrupted
ones `corrupt` returns included, are counted in the narrowest integer
type that holds the largest possible count, int16 for most radii;
real-valued scores sum in float64.  A count of bits is an integer that
float64 holds exactly, so the soft decoder gives the same mask for bits
as for the same 0/1 values held as scores.  A radius-0 disk is the
plane itself, cast.  Fractional scores are summed run by run, and each
add rounds: on a 40 x 300 plane of uniform scores the sum is off by up
to 4.5e-13 at r = 12, so a decision can differ from an exact sum's only
at a pixel whose sum lies that close to t*.

`corrupt` draws its uniforms through one float64 buffer of
`_DRAW_BUFFER` values, reused across the stack, so it holds a fixed
128 KiB of floats whatever the raster size.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .grid import BinaryMask, _Raster, _frozen_raster, _integer, _reach
from .edt import TruncatedDistanceMap

DECODE_MODES = ("conservative", "literal")

DEFAULT_SOFT_WEIGHT = 10.0
DEFAULT_SOFT_BIAS = -5.0
DEFAULT_SOFT_THRESHOLD = 0.4

# The scheme the CLI and `boxsim.robustness_sweep` use when none is given.
DEFAULT_BINS = 5
DEFAULT_RADIUS = 13

# Uniforms `corrupt` draws at a time: 128 KiB of float64.
_DRAW_BUFFER = 1 << 14


@dataclass(frozen=True)
class QuantizationScheme:
    """Radius table mapping distance values to bins.

    `radii` are integers that start at 0 and increase strictly.  Bin n
    (1-based) covers values v with radii[n-1] <= v < radii[n], the last
    bin every v >= r_K, so the table is the whole scheme: no truncation
    radius beyond r_K changes a plane.
    """

    radii: tuple[int, ...]

    def __post_init__(self):
        radii = tuple(_integer(r, "bin radius") for r in self.radii)
        if len(radii) < 2:
            raise ValueError(f"need at least 2 bins, got {len(radii)}")
        if radii[0] != 0:
            raise ValueError("first bin radius must be 0")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError(f"bin radii must be strictly increasing, got {radii}")
        object.__setattr__(self, "radii", radii)

    @property
    def bins(self) -> int:
        return len(self.radii)


def make_uniform_scheme(bins: int, radius_cap: int) -> QuantizationScheme:
    """Uniformly spaced radius table with bin 1 reserved for value 0.

    r_1 = 0 and r_n = 1 + floor((n - 2)(R - 1) / (K - 1)) for n >= 2,
    spreading the remaining radii evenly over [1, R].  Two radii would
    collide exactly when K >= 3 and R < K, so from 3 bins on the cap
    must be at least K; smaller caps are rejected.
    """
    bins, radius_cap = _integer(bins, "bin count"), _integer(radius_cap, "radius cap")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if radius_cap < 1:
        raise ValueError(f"radius cap must be >= 1, got {radius_cap}")
    if bins > 2 and radius_cap < bins:
        raise ValueError(
            f"bins would collide: {bins} bins need radius cap >= {bins}, got {radius_cap}"
        )
    radii = [0] + [
        1 + ((n - 2) * (radius_cap - 1)) // (bins - 1) for n in range(2, bins + 1)
    ]
    return QuantizationScheme(tuple(radii))


@dataclass(frozen=True, eq=False)
class BitPlaneStack(_Raster):
    """One binary plane per quantization bin, same grid for all.

    `encode` and a strict read give one-hot stacks.  `corrupt` and a lax
    read may set any number of bits at a pixel; only the hard decoder
    rejects such a stack.
    """

    planes: np.ndarray
    scheme: QuantizationScheme
    _array_field = "planes"

    def __post_init__(self):
        planes = _frozen_raster(self.planes, bool, bins=self.scheme.bins)
        object.__setattr__(self, "planes", planes)

    def is_one_hot(self) -> bool:
        """True when exactly one plane is set at every pixel."""
        return bool((self.planes.sum(axis=0, dtype=np.int32) == 1).all())


@dataclass(frozen=True, eq=False)
class ProbPlaneStack(_Raster):
    """Per-bin real-valued scores in [0, 1], one plane per bin.

    Scores are held as float64; NaN is rejected.
    """

    planes: np.ndarray
    scheme: QuantizationScheme
    _array_field = "planes"

    def __post_init__(self):
        arr = _frozen_raster(self.planes, np.float64, bins=self.scheme.bins)
        if not ((arr >= 0.0) & (arr <= 1.0)).all():
            raise ValueError("plane scores must lie in [0, 1]")
        object.__setattr__(self, "planes", arr)


def _count_bound(h: int, w: int, radius: int) -> int:
    """Largest count a radius-`radius` disk sum of an h x w bool plane reaches."""
    r = min(radius, _reach(h, w))
    return min((2 * r + 1) ** 2, h * w)


def _disk_sum(plane: np.ndarray, radius: int, dtype=None) -> np.ndarray:
    """Correlation of a plane with the radius-`radius` disk, zero outside.

    The disk is the union over dy in [-r, r] of row runs of half-width
    isqrt(r^2 - dy^2).  One run, the plane summed over columns x - k to
    x + k, is grown from the plane itself: step k adds the plane shifted
    k columns each way, and then the run is added to every output row
    dy whose half-width is k.  The cost grows with r rather than with
    the disk area.  Radii beyond the raster's reach are clamped to it,
    rows to |dy| <= h - 1 and half-widths to w - 1, where a run already
    spans the whole row, so memory follows the raster, not the radius.
    The radius-0 disk is one pixel, so its sum is the plane itself, cast.

    `dtype` of None counts a bool plane in the narrowest integer type
    that holds its largest count, `_count_bound`: min((2r + 1)^2, h * w)
    with the clamped r.  When that bound is at most 32767 the plane is
    counted in int16, otherwise in int32; every partial sum is a count
    no larger than the final one, so nothing wraps.  `dtype` of bool
    runs the same loop with a bool accumulator, which numpy adds as
    logical OR, and gives `_disk_sum(plane, radius) > 0`.

    A float plane sums in float64, added run by run, and each add
    rounds.  On a 40 x 300 plane of uniform scores the sum differs from
    the exact one by up to 8.9e-16 at r = 1, 1.1e-14 at r = 3 and
    4.5e-13 at r = 12; the error grows with r.  Scores whose partial
    sums float64 holds exactly, such as 0/1 or sixteenths, sum exactly.
    """
    h, w = plane.shape
    r = min(radius, _reach(h, w))
    if dtype is None and plane.dtype.kind == "f":
        dtype = np.float64
    elif dtype is None:
        bound = _count_bound(h, w, r)
        dtype = np.int16 if bound <= np.iinfo(np.int16).max else np.int32
    if r == 0:
        return plane.astype(dtype)
    # Each row is padded with as many zero columns as the widest run
    # reaches, so a shift of the flattened raster never carries a pixel
    # into the next row, and every add is one contiguous pass.
    widest = min(r, w - 1)
    wide = w + widest
    padded = np.zeros((h, wide), dtype=plane.dtype)
    padded[:, :w] = plane
    src = padded.ravel()
    run = src.astype(dtype)
    out = np.zeros(h * wide, dtype=dtype)
    k = 0
    # Rows from the farthest in: their half-widths only grow, and the
    # run grows with them.  Output row y takes run rows y + d and y - d.
    for d in range(min(r, h - 1), -1, -1):
        while k < min(math.isqrt(r * r - d * d), widest):
            k += 1
            run[k:] += src[:-k]
            run[:-k] += src[k:]
        out[: (h - d) * wide] += run[d * wide :]
        if d:
            out[d * wide :] += run[: (h - d) * wide]
    return out.reshape(h, wide)[:, :w]


def _float_at(key: int) -> float:
    """The float64 at position `key` of the float64 order, +0.0 at 0."""
    bits = key if key >= 0 else ~key | 1 << 63
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def _logit_floor(threshold: float) -> float:
    """t*: the least float64 t with expit(t) >= threshold, for 0 < threshold < 1.

    Bisection over the float64 order, from -inf (expit 0) to +inf
    (expit 1), so t* is exact where logit(threshold) would round: for
    0.5 it is -3.3e-16, not 0.  Where expit is monotone, as it is near
    t*, expit(x) >= threshold exactly when x >= t*.
    """
    lo, hi = ~0x7FF0_0000_0000_0000, 0x7FF0_0000_0000_0000  # -inf, +inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if expit(_float_at(mid)) >= threshold:
            hi = mid
        else:
            lo = mid
    return _float_at(hi)


def _painted_radius(bin_radius: int, mode: str, num: int = 1, den: int = 1) -> int | None:
    """Disk radius actually painted for a bin, or None for nothing.

    Bin radius 0 encodes the source set itself and paints nothing.
    Other radii scale by den / num, rounded half up.  Conservative mode
    shrinks every disk by one so painted pixels stay strictly closer
    than the encoded distance; literal mode paints the full radius.
    """
    if mode not in DECODE_MODES:
        raise ValueError(f"unknown decode mode {mode!r}")
    if bin_radius == 0:
        return None
    rho = (2 * bin_radius * den + num) // (2 * num)
    painted = rho - 1 if mode == "conservative" else rho
    return painted if painted >= 0 else None


def encode(dmap: TruncatedDistanceMap, scheme: QuantizationScheme) -> BitPlaneStack:
    """Quantize a distance map into a one-hot bit-plane stack.

    The map may be capped at any value >= r_K, the largest bin radius:
    every value from r_K on lands in the last bin, so the planes are the
    same for every such cap.  A map capped below r_K is rejected, since
    a capped value would land below the last bin.
    """
    if dmap.radius_cap < scheme.radii[-1]:
        raise ValueError(f"distance map is capped at {dmap.radius_cap}, below the largest bin radius {scheme.radii[-1]}")
    # Radii past int32 exceed every stored value: leave them out, uncast.
    radii = np.array([r for r in scheme.radii if r <= np.iinfo(np.int32).max], dtype=np.int32)
    # Largest n with radii[n] <= value, vectorized over the raster.
    idx = np.searchsorted(radii, dmap.values, side="right") - 1
    planes = idx[None, :, :] == np.arange(scheme.bins)[:, None, None]
    return BitPlaneStack(planes, scheme)


def hard_decode(stack: BitPlaneStack, mode: str = "conservative") -> BinaryMask:
    """Union-of-disks reconstruction via per-plane disk sums.

    A pixel is painted when some set bit of a plane lies within that
    plane's painted radius, and the planes are OR-ed.  Requires a
    one-hot stack.
    """
    if not stack.is_one_hot():
        raise ValueError("stack is not one-hot; every pixel needs exactly one set bit")
    out = np.zeros((stack.height, stack.width), dtype=bool)
    for plane, bin_radius in zip(stack.planes, stack.scheme.radii):
        painted = _painted_radius(bin_radius, mode)
        if painted is None or not plane.any():
            continue
        out |= _disk_sum(plane, painted, bool)
    return BinaryMask(out)


def soft_decode(
    stack: BitPlaneStack | ProbPlaneStack,
    mode: str = "conservative",
    *,
    weight: float | tuple[float, ...] = DEFAULT_SOFT_WEIGHT,
    bias: float = DEFAULT_SOFT_BIAS,
    threshold: float = DEFAULT_SOFT_THRESHOLD,
) -> BinaryMask:
    """Threshold the sigmoid of summed disk-kernel responses.

    Every plane, bits or scores, is correlated with its painted-radius
    disk kernel, the responses are combined as
    sigmoid(bias + sum_n w_n * resp_n), and pixels at or above the
    threshold are object.  `weight` is one coefficient per bin, or any
    real scalar (a Python or numpy number, or a 0-d array) shared by
    every bin.  The defaults place clean one-bit evidence at
    sigmoid(5) ~ 0.993 and absence at sigmoid(-5) ~ 0.007, so a 0.4
    threshold reproduces the hard decoder on one-hot input.

    Each w_n * resp_n is formed in one reused buffer and added to the
    sum, and the sum is compared with t* (`_logit_floor`) instead of
    passing through the sigmoid; the mask is the same.  Weights and a
    bias whose sum could leave float64, |bias| + sum_n |w_n| times the
    largest count plane n can reach, are rejected before any raster is
    built.

    Bit planes are counted exactly.  Fractional scores sum with rounding
    (`_disk_sum`: up to 8.9e-16, 1.1e-14 and 4.5e-13 at r = 1, 3 and 12
    on a 40 x 300 plane of uniform scores), so a pixel whose sum lies
    within that rounding of t* may decide otherwise than an exact sum
    would.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if not np.isfinite(weight).all():
        raise ValueError(f"weight must be finite, got {weight}")
    if not math.isfinite(bias):
        raise ValueError(f"bias must be finite, got {bias}")
    bins = stack.scheme.bins
    weights = np.asarray(weight, dtype=np.float64)
    if weights.ndim == 0:
        weights = np.full(bins, weights)
    if weights.shape != (bins,):
        raise ValueError(f"expected {bins} weights, got shape {weights.shape}")
    h, w = stack.height, stack.width
    painted = [_painted_radius(r, mode) for r in stack.scheme.radii]
    # Added in the decode's order, so no partial sum exceeds it.
    largest = abs(float(bias))
    for radius, wn in zip(painted, weights):
        if radius is not None:
            largest += abs(float(wn)) * _count_bound(h, w, radius)
    if not math.isfinite(largest):
        raise ValueError(
            f"weight {weight} and bias {bias} can overflow the soft-decode sum"
        )
    total = np.full((h, w), bias, dtype=np.float64)
    term = np.empty((h, w), dtype=np.float64)
    for plane, radius, wn in zip(stack.planes, painted, weights):
        if radius is None:
            continue
        np.multiply(_disk_sum(plane, radius), wn, out=term)
        total += term
    return BinaryMask(total >= _logit_floor(threshold))


def corrupt(stack: BitPlaneStack, flip_prob: float, seed: int) -> BitPlaneStack:
    """Flip each bit independently with probability `flip_prob`.

    The result is a bit-plane stack that need not be one-hot, for the
    soft decoder; the flips are those of `numpy.random.default_rng(seed)`,
    making every corruption reproducible from (stack, flip_prob, seed).
    Bit i of the stack, in C order, flips when the i-th uniform of
    `default_rng(seed).random(...)` is below `flip_prob`.  The uniforms
    are drawn `_DRAW_BUFFER` at a time into one reused buffer, which
    continues the same stream as one draw of the whole stack.
    """
    if not (0.0 <= flip_prob <= 1.0):
        raise ValueError(f"flip probability must lie in [0, 1], got {flip_prob}")
    rng = np.random.default_rng(_integer(seed, "seed"))
    planes = stack.planes.copy()
    bits = planes.reshape(-1)
    draw = np.empty(min(_DRAW_BUFFER, bits.size), dtype=np.float64)
    flips = np.empty(draw.size, dtype=bool)
    for start in range(0, bits.size, _DRAW_BUFFER):
        n = min(_DRAW_BUFFER, bits.size - start)
        rng.random(out=draw[:n])
        np.less(draw[:n], flip_prob, out=flips[:n])
        bits[start : start + n] ^= flips[:n]
    return BitPlaneStack(planes, stack.scheme)
