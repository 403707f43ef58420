"""Bit-plane codec for truncated distance maps.

Encoding quantizes each distance value into one of K bins by a strictly
increasing radius table r_1 = 0 < r_2 < ... < r_K <= R and stores a
one-hot stack of K binary planes.  Decoding paints a disk of the bin
radius around every set bit and unions the results; because the table
representative never exceeds the true value, a conservative decode
(disk radius r - 1) can never cross the object boundary, while a
literal decode (disk radius r) fills bins exactly.  A soft decoder
accepts bit planes or real-valued plane scores, sums disk-kernel
responses through a sigmoid, and thresholds; on clean one-hot input it
reproduces the hard decoder bit for bit.

Every disk is painted by one primitive, `_disk_sum`.  Bit planes,
the corrupted ones `corrupt` returns included, are counted in the
narrowest integer type that holds the largest possible count, int16
for most radii; real-valued scores sum in float64.  A count of bits is
an integer that float64 holds exactly, so the soft decoder gives the
same mask for bits as for the same 0/1 values held as scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .grid import BinaryMask, _reach
from .edt import TruncatedDistanceMap

DECODE_MODES = ("conservative", "literal")

DEFAULT_SOFT_WEIGHT = 10.0
DEFAULT_SOFT_BIAS = -5.0
DEFAULT_SOFT_THRESHOLD = 0.4


@dataclass(frozen=True)
class QuantizationScheme:
    """Radius table mapping distance values to bins.

    `radii` must start at 0, increase strictly, and stay within the
    truncation radius.  Bin n (1-based) covers values v with
    radii[n-1] <= v < radii[n], the last bin covering up to R.
    """

    radius_cap: int
    radii: tuple[int, ...]

    def __post_init__(self):
        radii = tuple(int(r) for r in self.radii)
        if len(radii) < 2:
            raise ValueError(f"need at least 2 bins, got {len(radii)}")
        if self.radius_cap < 1:
            raise ValueError(f"radius cap must be >= 1, got {self.radius_cap}")
        if radii[0] != 0:
            raise ValueError("first bin radius must be 0")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError(f"bin radii must be strictly increasing, got {radii}")
        if radii[-1] > self.radius_cap:
            raise ValueError(
                f"largest bin radius {radii[-1]} exceeds radius cap {self.radius_cap}"
            )
        object.__setattr__(self, "radii", radii)

    @property
    def bins(self) -> int:
        return len(self.radii)


def make_uniform_scheme(bins: int, radius_cap: int) -> QuantizationScheme:
    """Uniformly spaced radius table with bin 1 reserved for value 0.

    r_1 = 0 and r_n = 1 + floor((n - 2)(R - 1) / (K - 1)) for n >= 2,
    spreading the remaining radii evenly over [1, R].  Tables where the
    spacing would collapse two bins onto the same radius are rejected.
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if radius_cap < 1:
        raise ValueError(f"radius cap must be >= 1, got {radius_cap}")
    if bins - 1 > radius_cap:
        raise ValueError(
            f"bins would collide: {bins} bins need radius cap >= {bins - 1}, "
            f"got {radius_cap}"
        )
    radii = [0] + [
        1 + ((n - 2) * (radius_cap - 1)) // (bins - 1) for n in range(2, bins + 1)
    ]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(
            f"bins would collide: {bins} uniform bins do not fit radius cap "
            f"{radius_cap}"
        )
    return QuantizationScheme(radius_cap, tuple(radii))


def _frozen_planes(values, dtype, bins: int) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.ndim != 3 or arr.shape[0] != bins:
        raise ValueError(f"expected a (bins, height, width) stack with {bins} planes")
    if arr.shape[1] < 1 or arr.shape[2] < 1:
        raise ValueError("planes must have positive height and width")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BitPlaneStack:
    """One binary plane per quantization bin, same grid for all.

    `encode` and a strict read give one-hot stacks.  `corrupt` and a lax
    read may set any number of bits at a pixel; only the hard decoder
    rejects such a stack.
    """

    planes: np.ndarray
    scheme: QuantizationScheme

    def __post_init__(self):
        object.__setattr__(
            self, "planes", _frozen_planes(self.planes, bool, self.scheme.bins)
        )

    @property
    def height(self) -> int:
        return self.planes.shape[1]

    @property
    def width(self) -> int:
        return self.planes.shape[2]

    def is_one_hot(self) -> bool:
        """True when exactly one plane is set at every pixel."""
        return bool((self.planes.sum(axis=0, dtype=np.int32) == 1).all())


@dataclass(frozen=True, eq=False)
class ProbPlaneStack:
    """Per-bin real-valued scores in [0, 1], one plane per bin.

    Scores are held as float64; NaN is rejected.
    """

    planes: np.ndarray
    scheme: QuantizationScheme

    def __post_init__(self):
        arr = _frozen_planes(self.planes, np.float64, self.scheme.bins)
        if not ((arr >= 0.0) & (arr <= 1.0)).all():
            raise ValueError("plane scores must lie in [0, 1]")
        object.__setattr__(self, "planes", arr)

    @property
    def height(self) -> int:
        return self.planes.shape[1]

    @property
    def width(self) -> int:
        return self.planes.shape[2]


def _disk_element(radius: int) -> np.ndarray:
    """Boolean disk structuring element: center distance <= radius."""
    d = np.arange(-radius, radius + 1, dtype=np.int64)
    return (d[:, None] ** 2 + d[None, :] ** 2) <= radius * radius


def _disk_sum(plane: np.ndarray, radius: int) -> np.ndarray:
    """Correlation of a plane with the radius-`radius` disk, zero outside.

    The disk is the union over dy in [-r, r] of row runs of half-width
    isqrt(r^2 - dy^2).  One row-wise prefix sum of the zero-padded plane
    turns every run into the difference of two shifted slices, so the
    cost grows with r rather than with the disk area.  Radii beyond the
    raster's reach are clamped to it: every such disk already covers
    the whole raster.

    Float planes sum in float64.  A bool plane's count is at most
    min((2r + 1)^2, h * w) with the clamped r: when that bound is at
    most 32767 the plane is summed in int16, otherwise in int32.  The
    int16 row prefix may wrap, but integer arithmetic is modular and
    every result is a true count in [0, 32767], so the output is exact.
    """
    h, w = plane.shape
    r = min(radius, _reach(h, w))
    if plane.dtype.kind == "f":
        dtype = np.float64
    else:
        bound = min((2 * r + 1) ** 2, h * w)
        dtype = np.int16 if bound <= np.iinfo(np.int16).max else np.int32
    # Column c + r + 1 of `prefix` sums plane columns <= c of its row.
    prefix = np.zeros((h + 2 * r, w + 2 * r + 1), dtype=dtype)
    prefix[r : r + h, r + 1 : r + 1 + w] = plane
    np.cumsum(prefix, axis=1, out=prefix)
    out = np.zeros((h, w), dtype=dtype)
    for dy in range(-r, r + 1):
        half = math.isqrt(r * r - dy * dy)
        rows = prefix[r + dy : r + dy + h]
        out += rows[:, r + half + 1 : r + half + 1 + w]
        out -= rows[:, r - half : r - half + w]
    return out


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
    """Quantize a distance map into a one-hot bit-plane stack."""
    if scheme.radius_cap != dmap.radius_cap:
        raise ValueError(
            f"scheme radius cap {scheme.radius_cap} does not match "
            f"distance map cap {dmap.radius_cap}"
        )
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
        out |= _disk_sum(plane, painted) > 0
    return BinaryMask(out)


def hard_decode_oracle(stack: BitPlaneStack, mode: str = "conservative") -> BinaryMask:
    """Reference union-of-disks reconstruction, one pixel at a time.

    Walks the raster in row-major order, reads each pixel's bin radius
    off the one-hot stack, and stamps the clipped disk directly.  Slow
    and deliberately naive; `hard_decode` must match it exactly.
    """
    if not stack.is_one_hot():
        raise ValueError("stack is not one-hot; every pixel needs exactly one set bit")
    radii = np.asarray(stack.scheme.radii, dtype=np.int64)
    rep = (radii[:, None, None] * stack.planes).sum(axis=0)
    h, w = rep.shape
    out = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            painted = _painted_radius(int(rep[y, x]), mode)
            if painted is None:
                continue
            element = _disk_element(painted)
            y0, y1 = max(y - painted, 0), min(y + painted + 1, h)
            x0, x1 = max(x - painted, 0), min(x + painted + 1, w)
            out[y0:y1, x0:x1] |= element[
                y0 - y + painted : y1 - y + painted,
                x0 - x + painted : x1 - x + painted,
            ]
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
    threshold are object.  `weight` is one shared coefficient or one per
    bin.  The defaults place clean one-bit evidence at sigmoid(5) ~ 0.993
    and absence at sigmoid(-5) ~ 0.007, so a 0.4 threshold reproduces
    the hard decoder on one-hot input.
    """
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if not np.isfinite(weight).all():
        raise ValueError(f"weight must be finite, got {weight}")
    if not math.isfinite(bias):
        raise ValueError(f"bias must be finite, got {bias}")
    bins = stack.scheme.bins
    if isinstance(weight, (int, float)):
        weights = np.full(bins, float(weight))
    else:
        weights = np.asarray(weight, dtype=np.float64)
        if weights.shape != (bins,):
            raise ValueError(f"expected {bins} weights, got shape {weights.shape}")
    total = np.full((stack.height, stack.width), bias, dtype=np.float64)
    for plane, bin_radius, w in zip(stack.planes, stack.scheme.radii, weights):
        painted = _painted_radius(bin_radius, mode)
        if painted is None:
            continue
        total += w * _disk_sum(plane, painted)
    return BinaryMask(expit(total) >= threshold)


def corrupt(stack: BitPlaneStack, flip_prob: float, seed: int) -> BitPlaneStack:
    """Flip each bit independently with probability `flip_prob`.

    The result is a bit-plane stack that need not be one-hot, for the
    soft decoder; the flips are those of `numpy.random.default_rng(seed)`,
    making every corruption reproducible from (stack, flip_prob, seed).
    """
    if not (0.0 <= flip_prob <= 1.0):
        raise ValueError(f"flip probability must lie in [0, 1], got {flip_prob}")
    rng = np.random.default_rng(seed)
    planes = stack.planes.copy()
    # One draw per plane continues the same stream as one draw of the
    # whole stack, so the flips are the same with a plane of floats alive.
    for plane in planes:
        plane ^= rng.random(plane.shape) < flip_prob
    return BitPlaneStack(planes, stack.scheme)
