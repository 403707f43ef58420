import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from dtmask import (
    BinaryMask,
    BitPlaneStack,
    ProbPlaneStack,
    QuantizationScheme,
    TruncatedDistanceMap,
    boundary_set,
    corrupt,
    encode,
    hard_decode,
    interior_mask,
    make_uniform_scheme,
    read_bps,
    soft_decode,
    truncated_edt,
    write_bps,
)

from dtmask import codec
from dtmask.codec import _DRAW_BUFFER, _disk_sum, _logit_floor, _painted_radius
from dtmask.edt import BAND_LIMIT
from dtmask.grid import _reach

from helpers import (
    disk_sum_oracle,
    hard_decode_oracle,
    random_mask,
    random_one_hot,
    random_scheme,
    ring_mask,
    soft_decode_oracle,
)


class TestQuantizationScheme:
    def test_radii_must_start_at_zero(self):
        with pytest.raises(ValueError, match="first bin radius"):
            QuantizationScheme((1, 3))

    def test_radii_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            QuantizationScheme((0, 2, 2))

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            QuantizationScheme((0,))

    def test_radii_must_be_integers(self):
        # int() would truncate them to (0, 2, 5)
        with pytest.raises(ValueError) as err:
            QuantizationScheme((0, 2.7, 5.9))
        assert str(err.value) == "bin radius must be an integer, got 2.7"
        for bad in (np.float64(2.0), "2"):
            with pytest.raises(ValueError, match="bin radius must be an integer"):
                QuantizationScheme((0, bad))
        assert QuantizationScheme((np.int64(0), np.int32(2), 5)).radii == (0, 2, 5)


class TestMakeUniformScheme:
    def test_binary_scheme(self):
        assert make_uniform_scheme(2, 1).radii == (0, 1)

    def test_default_scheme(self):
        scheme = make_uniform_scheme(5, 13)
        assert scheme.radii == (0, 1, 4, 7, 10)

    def test_formula_on_sweep(self):
        for bins in range(2, 8):
            for cap in range(max(bins, 2), 30):
                scheme = make_uniform_scheme(bins, cap)
                want = [0] + [
                    1 + ((n - 2) * (cap - 1)) // (bins - 1) for n in range(2, bins + 1)
                ]
                assert list(scheme.radii) == want

    def test_too_many_bins_collide(self):
        with pytest.raises(ValueError, match="collide"):
            make_uniform_scheme(5, 3)
        # the formula also collapses radii for cap just above bins - 1
        with pytest.raises(ValueError, match="collide"):
            make_uniform_scheme(3, 2)

    def test_radii_collide_exactly_below_the_bin_count_from_three_bins(self):
        for bins in range(2, 40):
            for cap in range(1, 120):
                if bins >= 3 and cap < bins:
                    with pytest.raises(ValueError) as err:
                        make_uniform_scheme(bins, cap)
                    assert str(err.value) == (
                        f"bins would collide: {bins} bins need radius cap >= {bins}, got {cap}"
                    )
                else:
                    radii = make_uniform_scheme(bins, cap).radii
                    assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            make_uniform_scheme(1, 5)
        with pytest.raises(ValueError):
            make_uniform_scheme(3, 0)

    def test_counts_and_caps_must_be_integers(self):
        # 13.5 used to build the scheme of 13, and 5.0 bins failed in range()
        for args, message in (
            ((5, 13.5), "radius cap must be an integer, got 13.5"),
            ((5.0, 13), "bin count must be an integer, got 5.0"),
        ):
            with pytest.raises(ValueError) as err:
                make_uniform_scheme(*args)
            assert str(err.value) == message
        with pytest.raises(ValueError, match="radius cap must be an integer"):
            make_uniform_scheme(5, np.float32(13))
        assert make_uniform_scheme(np.int64(5), np.int32(13)) == make_uniform_scheme(5, 13)


class TestEncode:
    def test_singleton_bins_are_value_indicators(self):
        values = np.array([[0, 1], [2, 1]])
        stack = encode(
            TruncatedDistanceMap(values, 2), QuantizationScheme((0, 1, 2))
        )
        for n in range(3):
            assert np.array_equal(stack.planes[n], values == n)

    def test_all_zero_map_fills_plane_one(self):
        stack = encode(
            TruncatedDistanceMap(np.zeros((3, 3), int), 5), make_uniform_scheme(3, 5)
        )
        assert stack.planes[0].all()
        assert not stack.planes[1:].any()

    def test_radii_beyond_int32_are_searched_exactly(self):
        # the largest stored value meets radius 2^31 - 1 but not 2^31
        top = 2**31 - 1
        values = np.array([[0, 1, top]])
        for radii, want in (((0, 1, top), [0, 1, 2]), ((0, 1, top + 1), [0, 1, 1])):
            cap = max(radii[-1], 10**30)
            stack = encode(TruncatedDistanceMap(values, cap), QuantizationScheme(radii))
            assert stack.planes.argmax(axis=0).tolist() == [want]

    def test_map_capped_below_largest_radius_rejected(self):
        # r_K = 10: a map capped at 9 would put distances of 10 and more
        # into bin 4
        scheme = make_uniform_scheme(5, 13)
        values = np.zeros((2, 2), int)
        with pytest.raises(ValueError, match="capped at 9, below the largest bin radius 10"):
            encode(TruncatedDistanceMap(values, 9), scheme)
        for cap in (10, 13, 10**30):
            assert encode(TruncatedDistanceMap(values, cap), scheme).planes[0].all()

    def test_one_hot_and_floor_representative(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            scheme = random_scheme(rng)
            cap = scheme.radii[-1] + int(rng.integers(0, 4))
            values = rng.integers(0, cap + 1, size=(12, 14))
            stack = encode(TruncatedDistanceMap(values, cap), scheme)
            assert stack.is_one_hot()
            radii = np.asarray(scheme.radii)
            rep = (radii[:, None, None] * stack.planes).sum(axis=0)
            assert (rep <= values).all()
            # gap stays below the width of the bin the value landed in
            edges = np.append(radii, cap + 1)
            for n in range(scheme.bins):
                in_bin = stack.planes[n]
                assert (values[in_bin] < edges[n + 1]).all()


PLUS_5X5 = np.array(
    [
        [0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 1, 1, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0],
    ],
    dtype=bool,
)

DISK13_5X5 = np.array(
    [
        [0, 0, 1, 0, 0],
        [0, 1, 1, 1, 0],
        [1, 1, 1, 1, 1],
        [0, 1, 1, 1, 0],
        [0, 0, 1, 0, 0],
    ],
    dtype=bool,
)


def _single_bit_stack(radius=2, size=5):
    scheme = QuantizationScheme((0, radius))
    planes = np.zeros((2, size, size), dtype=bool)
    planes[1, size // 2, size // 2] = True
    planes[0] = ~planes[1]
    return BitPlaneStack(planes, scheme)


class TestHardDecode:
    def test_conservative_paints_short_disk(self):
        out = hard_decode(_single_bit_stack(), "conservative")
        assert np.array_equal(out.pixels, PLUS_5X5)

    def test_literal_paints_full_disk(self):
        out = hard_decode(_single_bit_stack(), "literal")
        assert np.array_equal(out.pixels, DISK13_5X5)

    def test_zero_bin_paints_nothing(self):
        planes = np.zeros((2, 4, 4), dtype=bool)
        planes[0] = True
        stack = BitPlaneStack(planes, QuantizationScheme((0, 3)))
        for mode in ("conservative", "literal"):
            assert not hard_decode(stack, mode).pixels.any()

    def test_rejects_non_one_hot(self):
        planes = np.ones((2, 3, 3), dtype=bool)
        stack = BitPlaneStack(planes, QuantizationScheme((0, 2)))
        with pytest.raises(ValueError, match="one-hot"):
            hard_decode(stack)
        with pytest.raises(ValueError, match="one-hot"):
            hard_decode_oracle(stack)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            hard_decode(_single_bit_stack(), "fuzzy")

    def test_one_hot_count_does_not_wrap(self):
        # 257 bits at one pixel: a uint8 count would wrap to 1
        planes = np.zeros((257, 2, 2), dtype=bool)
        planes[0] = True
        planes[:, 0, 1] = True
        stack = BitPlaneStack(planes, QuantizationScheme(tuple(range(257))))
        assert not stack.is_one_hot()
        with pytest.raises(ValueError, match="one-hot"):
            hard_decode(stack)

    def test_matches_oracle_on_random_stacks(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            stack = random_one_hot(rng, random_scheme(rng), min_size=1, max_size=28)
            for mode in ("conservative", "literal"):
                fast = hard_decode(stack, mode)
                ref = hard_decode_oracle(stack, mode)
                assert np.array_equal(fast.pixels, ref.pixels)

    def test_matches_oracle_on_encoded_ring(self):
        stack = encode(
            truncated_edt(ring_mask(32, 32, 16, 16, 13, 6), 13),
            make_uniform_scheme(5, 13),
        )
        for mode in ("conservative", "literal"):
            assert np.array_equal(
                hard_decode(stack, mode).pixels, hard_decode_oracle(stack, mode).pixels
            )

    def test_literal_superset_of_conservative(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            stack = random_one_hot(rng, random_scheme(rng), max_size=24)
            cons = hard_decode(stack, "conservative").pixels
            lit = hard_decode(stack, "literal").pixels
            assert not (cons & ~lit).any()


class TestDiskSum:
    @pytest.mark.parametrize(
        "shape, radius, density, dtype",
        [
            # (2r + 1)^2 = 32761 is the last disk bound int16 holds
            ((200, 200), 90, 0.002, np.int16),
            ((200, 200), 91, 0.002, np.int32),
            # more than 32767 set bits in one row, but no disk holds more
            # than 11: the disk bound, not the plane's total, picks int16
            ((1, 40000), 5, 0.9, np.int16),
            # h * w is past int16, the disk bound alone picks it
            ((3, 15000), 90, 0.5, np.int16),
            # a radius far past the reach is clamped to it
            ((7, 5), 10**6, 0.5, np.int16),
        ],
    )
    def test_bool_planes_match_oracle(self, shape, radius, density, dtype):
        rng = np.random.default_rng(103)
        plane = rng.random(shape) < density
        got = _disk_sum(plane, radius)
        assert got.dtype == dtype
        assert np.array_equal(got, disk_sum_oracle(plane, radius))

    def test_dense_row_holds_more_bits_than_int16(self):
        plane = np.random.default_rng(103).random((1, 40000)) < 0.9
        assert plane.sum() > np.iinfo(np.int16).max

    def test_dense_int16_counts_equal_float_sums(self):
        plane = np.random.default_rng(107).random((200, 200)) < 0.9
        got = _disk_sum(plane, 90)
        assert got.dtype == np.int16
        assert got.max() > 20000
        assert np.array_equal(got, _disk_sum(plane.astype(np.float64), 90))

    @pytest.mark.parametrize("shape", [(1, 2000), (2000, 1)])
    def test_memory_follows_the_raster_not_the_radius(self, shape):
        # a radius far past a thin strip's reach still allocates a few
        # bytes per pixel, on both the counting and the bool path
        plane = np.zeros(shape, dtype=bool)
        plane[0, 0] = True
        tracemalloc.start()
        try:
            counts = _disk_sum(plane, 10**6)
            union = _disk_sum(plane, 10**6, bool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.all() and union.all()
        assert peak <= 32 * plane.size

    @pytest.mark.parametrize("radius", [0, 1, 4, 17, 10**6])
    def test_float_planes_stay_exact(self, radius):
        rng = np.random.default_rng(109)
        # sixteenths sum exactly in float64 in any order
        plane = rng.integers(0, 17, size=(30, 40)) / 16.0
        plane[rng.random(plane.shape) < 0.8] = 0.0
        got = _disk_sum(plane, radius)
        assert got.dtype == np.float64
        assert np.array_equal(got, disk_sum_oracle(plane, radius))


class TestRoundtrip:
    def test_interior_roundtrip_exact(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            m = random_mask(rng, max_size=48)
            cap = int(rng.choice([1, 5, 13]))
            bins = int(rng.choice([2, 3, 5]))
            if bins - 1 > cap or (bins > 2 and cap < bins):
                continue
            stack = encode(truncated_edt(m, cap), make_uniform_scheme(bins, cap))
            out = hard_decode(stack, "conservative")
            assert np.array_equal(out.pixels, interior_mask(m).pixels)

    def test_no_boundary_leakage(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            m = random_mask(rng, max_size=48)
            stack = encode(truncated_edt(m, 6), make_uniform_scheme(4, 6))
            out = hard_decode(stack, "conservative")
            assert not (out.pixels & boundary_set(m).pixels).any()

    def test_representative_monotone_under_refinement(self):
        # uniform tables for K in {2, 3, 5} at cap 13 are nested, so the
        # per-pixel representative can only grow with more bins
        tables = [make_uniform_scheme(k, 13) for k in (2, 3, 5)]
        for a, b in zip(tables, tables[1:]):
            assert set(a.radii) <= set(b.radii)
        rng = np.random.default_rng(71)
        for _ in range(15):
            m = random_mask(rng, max_size=32)
            dmap = truncated_edt(m, 13)
            reps = []
            for scheme in tables:
                radii = np.asarray(scheme.radii)
                planes = encode(dmap, scheme).planes
                reps.append((radii[:, None, None] * planes).sum(axis=0))
            for lo, hi in zip(reps, reps[1:]):
                assert (hi >= lo).all()


class TestSoftDecode:
    def test_equals_hard_on_binarized_stacks(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            stack = random_one_hot(rng, random_scheme(rng), max_size=24)
            prob = corrupt(stack, 0.0, 0)
            for mode in ("conservative", "literal"):
                assert np.array_equal(
                    soft_decode(prob, mode=mode).pixels,
                    hard_decode(stack, mode).pixels,
                )

    def test_any_real_scalar_weight_is_shared_by_every_bin(self):
        rng = np.random.default_rng(131)
        scheme = make_uniform_scheme(5, 13)
        stack = corrupt(random_one_hot(rng, scheme, min_size=16, max_size=24), 0.1, 5)
        for w in (3.0, 10.0):
            want = soft_decode(stack, weight=(w,) * scheme.bins).pixels
            for weight in (w, int(w), np.float32(w), np.float64(w), np.int64(w), np.array(w)):
                assert np.array_equal(soft_decode(stack, weight=weight).pixels, want)

    @pytest.mark.parametrize("flip_prob", [0.02, 0.3, 1.0])
    def test_matches_oracle_on_corrupted_stacks(self, flip_prob):
        rng = np.random.default_rng(113)
        for _ in range(40):
            scheme = random_scheme(rng)
            prob = corrupt(random_one_hot(rng, scheme, max_size=24), flip_prob, 7)
            per_bin = dict(
                weight=tuple(float(v) for v in rng.uniform(-2.0, 6.0, scheme.bins)),
                bias=float(rng.uniform(-8.0, 0.0)),
                threshold=float(rng.uniform(0.05, 0.95)),
            )
            for params in ({}, per_bin):
                for mode in ("conservative", "literal"):
                    assert np.array_equal(
                        soft_decode(prob, mode, **params).pixels,
                        soft_decode_oracle(prob, mode, **params).pixels,
                    )

    def test_bool_and_float_zero_one_scores_decode_alike(self):
        rng = np.random.default_rng(127)
        for _ in range(40):
            scheme = random_scheme(rng)
            prob = corrupt(random_one_hot(rng, scheme, max_size=24), 0.3, 11)
            scores = ProbPlaneStack(prob.planes.astype(np.float64), scheme)
            assert scores.planes.dtype == np.float64
            for mode in ("conservative", "literal"):
                assert np.array_equal(
                    soft_decode(prob, mode=mode).pixels,
                    soft_decode(scores, mode=mode).pixels,
                )

    def test_matches_oracle_on_fractional_scores(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            scheme = random_scheme(rng)
            h, w = (int(v) for v in rng.integers(1, 25, size=2))
            prob = ProbPlaneStack(rng.random((scheme.bins, h, w)), scheme)
            params = dict(
                weight=tuple(float(v) for v in rng.uniform(-2.0, 6.0, scheme.bins)),
                bias=float(rng.uniform(-8.0, 0.0)),
                threshold=float(rng.uniform(0.05, 0.95)),
            )
            for mode in ("conservative", "literal"):
                assert np.array_equal(
                    soft_decode(prob, mode, **params).pixels,
                    soft_decode_oracle(prob, mode, **params).pixels,
                )

    def test_all_zero_planes_decode_empty(self):
        scheme = make_uniform_scheme(3, 5)
        prob = ProbPlaneStack(np.zeros((3, 6, 6)), scheme)
        assert not soft_decode(prob).pixels.any()

    def test_threshold_validated(self):
        prob = ProbPlaneStack(np.zeros((2, 3, 3)), make_uniform_scheme(2, 1))
        with pytest.raises(ValueError):
            soft_decode(prob, threshold=0.0)
        with pytest.raises(ValueError):
            soft_decode(prob, threshold=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"weight": np.nan}, {"weight": -np.inf}, {"weight": (1.0, np.inf)}, {"bias": np.nan}],
    )
    def test_non_finite_weight_and_bias_rejected(self, kwargs):
        prob = ProbPlaneStack(np.zeros((2, 3, 3)), make_uniform_scheme(2, 1))
        with pytest.raises(ValueError, match="must be finite"):
            soft_decode(prob, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weight": 1e308},
            {"weight": 1e307, "bias": np.float64(-1.7e308)},
            # mixed signs: the sum could reach inf - inf = nan
            {"weight": (0.0, 1.7e308, -1.7e308)},
        ],
    )
    def test_overflowing_weight_and_bias_rejected(self, kwargs):
        # bin radii (0, 1, 3): conservative disks of radius 0 and 2
        planes = np.ones((3, 6, 6), dtype=bool)
        stack = BitPlaneStack(planes, make_uniform_scheme(3, 5))
        weight, bias = kwargs.get("weight", 10.0), kwargs.get("bias", -5.0)
        with pytest.raises(ValueError, match=re.escape(f"weight {weight} and bias {bias} can")):
            soft_decode(stack, **kwargs)

    def test_largest_finite_sum_accepted(self):
        # one 1x1 plane: the sum reaches at most |bias| + |w|, finite
        stack = BitPlaneStack(np.ones((2, 1, 1), dtype=bool), QuantizationScheme((0, 1)))
        got = soft_decode(stack, "literal", weight=1.7e308, bias=-1e306)
        want = soft_decode_oracle(stack, "literal", weight=1.7e308, bias=-1e306)
        assert got.pixels.tolist() == want.pixels.tolist() == [[True]]

    def test_per_bin_weights(self):
        scheme = QuantizationScheme((0, 2))
        planes = np.zeros((2, 5, 5))
        planes[1, 2, 2] = 1.0
        prob = ProbPlaneStack(planes, scheme)
        # silencing the only active plane leaves nothing above threshold
        assert not soft_decode(prob, weight=(10.0, 0.0)).pixels.any()
        with pytest.raises(ValueError, match="weights"):
            soft_decode(prob, weight=(1.0, 2.0, 3.0))

    def test_prob_planes_validated(self):
        scheme = make_uniform_scheme(2, 1)
        with pytest.raises(ValueError):
            ProbPlaneStack(np.full((2, 2, 2), 1.5), scheme)

    @pytest.mark.parametrize("nan_at", [None, (1, 2, 0)])
    def test_nan_scores_rejected(self, nan_at):
        scores = np.full((2, 3, 3), np.nan)
        if nan_at is not None:
            scores = np.random.default_rng(131).random((2, 3, 3))
            scores[nan_at] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbPlaneStack(scores, make_uniform_scheme(2, 3))


def _disk_sum_dtypes(monkeypatch):
    """Record the `dtype` of every `_disk_sum` call `soft_decode` makes."""
    seen, disk_sum = [], codec._disk_sum

    def spy(plane, radius, dtype=None):
        seen.append(dtype)
        return disk_sum(plane, radius, dtype)

    monkeypatch.setattr(codec, "_disk_sum", spy)
    return seen


class TestDecisiveBits:
    """`soft_decode` unions disks when one covering disk decides a pixel."""

    T = _logit_floor(0.4)

    def _check(self, stack, **params):
        """The conservative decode, once both modes equal the oracle."""
        got = {}
        for mode in ("conservative", "literal"):
            got[mode] = soft_decode(stack, mode, threshold=0.4, **params).pixels
            assert np.array_equal(got[mode], soft_decode_oracle(stack, mode, threshold=0.4, **params).pixels)
        return got["conservative"]

    def _noisy(self, seed):
        rng = np.random.default_rng(seed)
        return corrupt(random_one_hot(rng, make_uniform_scheme(5, 13), min_size=16, max_size=24), 0.05, seed)

    def test_defaults_count_nothing(self, monkeypatch):
        seen = _disk_sum_dtypes(monkeypatch)
        soft_decode(self._noisy(1))
        assert seen and all(d is bool for d in seen)
        seen.clear()
        scores = np.random.default_rng(2).random((5, 12, 12))
        soft_decode(ProbPlaneStack(scores, make_uniform_scheme(5, 13)))
        assert seen and bool not in seen

    def test_sum_exactly_at_t_star_is_decisive(self, monkeypatch):
        bias, w = 2 * self.T, -self.T
        assert bias < self.T and bias + w == self.T
        seen = _disk_sum_dtypes(monkeypatch)
        got = self._check(_single_bit_stack(), weight=w, bias=bias)
        assert np.array_equal(got, PLUS_5X5)
        assert all(d is bool for d in seen)
        self._check(self._noisy(3), weight=w, bias=bias)

    def test_one_ulp_short_needs_two_disks(self, monkeypatch):
        bias, w = 2 * self.T, np.nextafter(-self.T, 0.0)
        assert bias + w == np.nextafter(self.T, -np.inf)
        # two conservative radius-1 disks overlap at (2, 3) alone
        planes = np.zeros((2, 5, 7), dtype=bool)
        planes[1, 2, [2, 4]] = True
        stack = BitPlaneStack(planes, QuantizationScheme((0, 2)))
        seen = _disk_sum_dtypes(monkeypatch)
        got = self._check(stack, weight=w, bias=bias)
        assert np.argwhere(got).tolist() == [[2, 3]]
        assert bool not in seen
        self._check(self._noisy(4), weight=w, bias=bias)

    def test_one_weight_that_does_not_decide_alone(self):
        # bin 3 alone sums to -5 + 1 < t*: one bit there paints nothing
        planes = np.zeros((5, 9, 9), dtype=bool)
        planes[2, 4, 4] = True
        planes[0] = ~planes[2]
        stack = BitPlaneStack(planes, make_uniform_scheme(5, 13))
        weight = (10.0, 10.0, 1.0, 10.0, 10.0)
        assert hard_decode(stack).pixels.any()
        assert not self._check(stack, weight=weight).any()
        self._check(self._noisy(5), weight=weight)

    @pytest.mark.parametrize("bias", [T, 0.0])
    def test_bias_at_or_above_t_star_paints_everything(self, bias):
        assert self._check(_single_bit_stack(), bias=bias).all()
        assert self._check(self._noisy(6), bias=bias).all()


class TestCorrupt:
    def test_returns_bool_planes(self):
        # Flips are drawn through a fixed buffer of floats: a draw of
        # the whole stack alone would hold 8 bytes per bit.
        rng = np.random.default_rng(137)
        stack = random_one_hot(rng, make_uniform_scheme(5, 13), min_size=256, max_size=256)
        corrupt(stack, 0.5, 1)  # warm up outside the trace
        for flip_prob in (0.0, 0.3, 1.0):
            tracemalloc.start()
            try:
                prob = corrupt(stack, flip_prob, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert prob.planes.dtype == bool
            assert peak < 4 * stack.planes.size

    def test_draw_buffer_is_fixed(self):
        # a stack of many buffers draws no more floats than one buffer
        stack = BitPlaneStack(np.zeros((2, 4, _DRAW_BUFFER), dtype=bool), make_uniform_scheme(2, 1))
        corrupt(stack, 0.5, 1)  # warm up outside the trace
        tracemalloc.start()
        try:
            corrupt(stack, 0.5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * stack.planes.size + 10 * _DRAW_BUFFER

    def test_peak_is_one_byte_per_bit(self):
        # measured 1.005 B/bit past the fixed buffers on 5 x 256^2: the
        # flipped copy is frozen in place, not copied again
        stack = random_one_hot(np.random.default_rng(139), make_uniform_scheme(5, 13), 256, 256)
        corrupt(stack, 0.3, 1)  # warm up outside the trace
        tracemalloc.start()
        try:
            noisy = corrupt(stack, 0.3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not noisy.planes.flags.writeable
        assert peak - 9 * _DRAW_BUFFER < 1.05 * stack.planes.size

    def test_zero_flip_prob_is_identity(self):
        rng = np.random.default_rng(79)
        stack = random_one_hot(rng, make_uniform_scheme(5, 13))
        prob = corrupt(stack, 0.0, 123)
        assert np.array_equal(prob.planes.astype(bool), stack.planes)

    def test_full_flip_prob_inverts(self):
        rng = np.random.default_rng(83)
        stack = random_one_hot(rng, make_uniform_scheme(3, 5))
        prob = corrupt(stack, 1.0, 5)
        assert np.array_equal(prob.planes.astype(bool), ~stack.planes)

    def test_seed_determinism(self):
        rng = np.random.default_rng(89)
        stack = random_one_hot(rng, make_uniform_scheme(5, 13))
        a = corrupt(stack, 0.3, 42)
        b = corrupt(stack, 0.3, 42)
        c = corrupt(stack, 0.3, 43)
        assert np.array_equal(a.planes, b.planes)
        assert not np.array_equal(a.planes, c.planes)

    def test_flip_prob_validated(self):
        rng = np.random.default_rng(97)
        stack = random_one_hot(rng, make_uniform_scheme(2, 1))
        with pytest.raises(ValueError):
            corrupt(stack, -0.1, 0)
        with pytest.raises(ValueError):
            corrupt(stack, 1.1, 0)


def test_painted_radius_rounds_exact_halves_up():
    # a bin radius r at window scale num/den paints r * den / num image
    # pixels rounded half up, one fewer in conservative mode
    for num in range(1, 7):
        for den in range(1, 7):
            for r in range(1, 20):
                rho = math.floor(Fraction(r * den, num) + Fraction(1, 2))
                assert _painted_radius(r, "literal", num, den) == rho
                conservative = _painted_radius(r, "conservative", num, den)
                assert conservative == (rho - 1 if rho >= 1 else None)


def test_stack_plane_count_must_match_scheme():
    with pytest.raises(ValueError):
        BitPlaneStack(np.zeros((3, 4, 4), dtype=bool), make_uniform_scheme(2, 1))


# t* for the edge thresholds, and the float64 just below each.
T_STAR = {
    0.5: -3.3306690738754686e-16,
    5e-324: -709.782712893384,
    1 - 2**-53: 36.73680056967711,
}
EDGE_BIASES = [*T_STAR.values(), *(np.nextafter(t, -np.inf) for t in T_STAR.values())]


def _floats_around(x: float, ulps: int) -> np.ndarray:
    """The 2 * ulps + 1 consecutive float64 values centred on x (all of one sign)."""
    bits = np.float64(x).view(np.int64) + np.arange(-ulps, ulps + 1, dtype=np.int64)
    if x < 0:  # negative floats run backwards in their bit patterns
        bits = bits[::-1]
    return bits.view(np.float64)


@pytest.mark.parametrize("threshold", sorted(T_STAR))
def test_logit_floor_is_the_least_float_reaching_the_threshold(threshold):
    t_star = _logit_floor(threshold)
    assert t_star == T_STAR[threshold]
    assert expit(t_star) >= threshold > expit(np.nextafter(t_star, -np.inf))
    # The comparison with t* equals the sigmoid's wherever expit is
    # monotone; check it is, 2**20 ulps either side.
    xs = _floats_around(t_star, 2**20)
    assert (np.diff(xs) > 0).all()
    assert (np.diff(expit(xs)) >= 0).all()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 3),
    st.sampled_from([1, 2, 300, _DRAW_BUFFER // 2 - 1, _DRAW_BUFFER // 2 + 1]
                    + [k * _DRAW_BUFFER + d for k in (1, 2) for d in (-1, 0, 1)]),
    st.integers(1, 3),
    st.sampled_from([0.0, 5e-324, 0.02, 0.3, 1.0]),
    st.integers(0, 2**128),
)
def test_corrupt_equals_whole_stack_draw_property(bins, width, height, flip_prob, seed):
    # plane and stack sizes on both sides of the buffer and its multiples
    planes = np.random.default_rng(width * height).random((bins, height, width)) < 0.5
    got = corrupt(BitPlaneStack(planes, make_uniform_scheme(bins, bins)), flip_prob, seed)
    want = planes ^ (np.random.default_rng(seed).random(planes.shape) < flip_prob)
    assert got.planes.dtype == bool
    assert np.array_equal(got.planes, want)
    if flip_prob == 0.0:
        assert np.array_equal(got.planes, planes)


@st.composite
def soft_cases(draw):
    """A bit or score stack, shared or per-bin weights, edge thresholds."""
    steps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    radii = tuple(int(r) for r in np.cumsum([0, *steps]))
    scheme = QuantizationScheme(radii)
    shape = (scheme.bins, draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    if draw(st.booleans()):
        stack = BitPlaneStack(draw(hnp.arrays(bool, shape)), scheme)
    else:
        scores = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
        stack = ProbPlaneStack(draw(hnp.arrays(np.float64, shape, elements=scores)), scheme)
    coef = st.floats(-20.0, 20.0) | st.just(0.0)
    if draw(st.booleans()):
        weight = draw(coef)
    else:
        weight = tuple(draw(st.lists(coef, min_size=scheme.bins, max_size=scheme.bins)))
    bias = draw(st.sampled_from(EDGE_BIASES) | st.floats(-40.0, 40.0))
    threshold = draw(st.sampled_from(sorted(T_STAR)) | st.floats(0.01, 0.99))
    mode = draw(st.sampled_from(["conservative", "literal"]))
    return stack, mode, dict(weight=weight, bias=bias, threshold=threshold)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(soft_cases())
def test_soft_decode_equals_oracle_property(case):
    stack, mode, params = case
    got = soft_decode(stack, mode, **params)
    assert np.array_equal(got.pixels, soft_decode_oracle(stack, mode, **params).pixels)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(st.integers(1, 20), st.integers(1, 20)).flatmap(
        lambda shape: hnp.arrays(bool, shape) | hnp.arrays(np.float64, shape, elements=st.floats(0, 1))
    )
)
def test_radius_zero_disk_sum_equals_oracle_property(plane):
    got = _disk_sum(plane, 0)
    assert got.dtype == (np.float64 if plane.dtype.kind == "f" else np.int16)
    assert np.array_equal(got, disk_sum_oracle(plane, 0))


@st.composite
def disk_sum_cases(draw):
    """A bool plane from 1x1 up, thin strips included, and a radius from 0
    to past the plane's reach."""
    h, w = draw(
        st.tuples(st.integers(1, 12), st.integers(1, 12))
        | st.tuples(st.just(1), st.integers(1, 200))
        | st.tuples(st.integers(1, 200), st.just(1))
    )
    plane = draw(hnp.arrays(bool, (h, w)))
    reach = _reach(h, w)
    radius = draw(st.integers(0, reach + 2) | st.sampled_from([reach, 10**6]))
    return plane, radius


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(disk_sum_cases())
def test_disk_sum_equals_oracle_property(case):
    plane, radius = case
    h, w = plane.shape
    r = min(radius, _reach(h, w))
    want = disk_sum_oracle(plane, radius)
    got = _disk_sum(plane, radius)
    assert got.dtype == (np.int16 if min((2 * r + 1) ** 2, h * w) <= 32767 else np.int32)
    assert np.array_equal(got, want)
    union = _disk_sum(plane, radius, bool)
    assert union.dtype == bool
    assert np.array_equal(union, want > 0)


@st.composite
def encode_cases(draw):
    """A mask from 1x1 up and a uniform or random scheme whose truncation
    radius R lies on either side of the EDT's `BAND_LIMIT`."""
    h, w = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    mask = BinaryMask(draw(hnp.arrays(bool, (h, w))))
    limits = st.sampled_from([BAND_LIMIT - 1, BAND_LIMIT, BAND_LIMIT + 1])
    if draw(st.booleans()):
        bins = draw(st.integers(2, 6))
        radius = draw(st.integers(bins, 2 * BAND_LIMIT) | limits)
        scheme = make_uniform_scheme(bins, radius)
    else:
        steps = draw(st.lists(st.integers(1, 20), min_size=1, max_size=5))
        scheme = QuantizationScheme(tuple(int(r) for r in np.cumsum([0, *steps])))
        radius = scheme.radii[-1] + draw(st.integers(0, 2 * BAND_LIMIT) | limits)
    return mask, scheme, radius


CODEC_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@CODEC_PROPERTY
@given(encode_cases())
def test_encode_is_the_same_at_every_cap_from_the_largest_radius_property(case):
    # every value from r_K on lands in the last bin, so no cap >= r_K
    # changes a plane, whichever EDT route the cap selects
    mask, scheme, radius = case
    top = scheme.radii[-1]
    want = encode(truncated_edt(mask, top), scheme)
    for cap in (radius, _reach(*mask.pixels.shape), 10**30):
        if cap >= top:
            assert np.array_equal(encode(truncated_edt(mask, cap), scheme).planes, want.planes)


@CODEC_PROPERTY
@given(encode_cases())
def test_clean_encode_decodes_within_the_interior_property(case):
    mask, scheme, _ = case
    stack = encode(truncated_edt(mask, scheme.radii[-1]), scheme)
    cons = hard_decode(stack, "conservative").pixels
    lit = hard_decode(stack, "literal").pixels
    interior = interior_mask(mask).pixels
    # with r_2 = 1 every interior pixel paints at least itself; any
    # scheme paints within the interior, so within the mask
    if scheme.radii[1] == 1:
        assert np.array_equal(cons, interior)
    assert not (cons & ~interior).any()
    assert not (cons & ~lit).any()
    for mode, hard in (("conservative", cons), ("literal", lit)):
        assert np.array_equal(soft_decode(stack, mode).pixels, hard)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(encode_cases())
def test_bps_roundtrip_keeps_scheme_and_planes_property(tmp_path, case):
    mask, scheme, _ = case
    stack = encode(truncated_edt(mask, scheme.radii[-1]), scheme)
    write_bps(tmp_path / "s.bps", stack)
    got = read_bps(tmp_path / "s.bps")
    assert got.scheme == stack.scheme
    assert np.array_equal(got.planes, stack.planes)


@pytest.mark.parametrize("radius", [1, 3, 12])
def test_float_disk_sums_stay_within_a_fixed_rounding_bound(radius):
    # Adding runs rounds fractional scores (`_disk_sum`); on this plane
    # the error measured up to 8.9e-16, 1.1e-14 and 4.5e-13 for r = 1, 3
    # and 12.  Bit planes are exact (`TestDiskSum`).
    plane = np.random.default_rng(1).random((40, 300))
    err = np.abs(_disk_sum(plane, radius) - disk_sum_oracle(plane, radius))
    assert err.max() <= 1e-12
