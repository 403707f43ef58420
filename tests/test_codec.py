import tracemalloc

import numpy as np
import pytest

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
    hard_decode_oracle,
    interior_mask,
    make_uniform_scheme,
    soft_decode,
    truncated_edt,
)

from dtmask.codec import _disk_sum

from helpers import (
    disk_sum_oracle,
    random_mask,
    random_one_hot,
    random_scheme,
    ring_mask,
    soft_decode_oracle,
)


class TestQuantizationScheme:
    def test_radii_must_start_at_zero(self):
        with pytest.raises(ValueError, match="first bin radius"):
            QuantizationScheme(5, (1, 3))

    def test_radii_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            QuantizationScheme(5, (0, 2, 2))

    def test_radii_within_cap(self):
        with pytest.raises(ValueError, match="exceeds radius cap"):
            QuantizationScheme(3, (0, 4))

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            QuantizationScheme(3, (0,))


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

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            make_uniform_scheme(1, 5)
        with pytest.raises(ValueError):
            make_uniform_scheme(3, 0)


class TestEncode:
    def test_singleton_bins_are_value_indicators(self):
        values = np.array([[0, 1], [2, 1]])
        stack = encode(
            TruncatedDistanceMap(values, 2), QuantizationScheme(2, (0, 1, 2))
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
            stack = encode(TruncatedDistanceMap(values, cap), QuantizationScheme(cap, radii))
            assert stack.planes.argmax(axis=0).tolist() == [want]

    def test_cap_mismatch_rejected(self):
        dmap = TruncatedDistanceMap(np.zeros((2, 2), int), 5)
        with pytest.raises(ValueError, match="radius cap"):
            encode(dmap, make_uniform_scheme(3, 7))

    def test_one_hot_and_floor_representative(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            scheme = random_scheme(rng)
            cap = scheme.radius_cap
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
    scheme = QuantizationScheme(radius, (0, radius))
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
        stack = BitPlaneStack(planes, QuantizationScheme(3, (0, 3)))
        for mode in ("conservative", "literal"):
            assert not hard_decode(stack, mode).pixels.any()

    def test_rejects_non_one_hot(self):
        planes = np.ones((2, 3, 3), dtype=bool)
        stack = BitPlaneStack(planes, QuantizationScheme(2, (0, 2)))
        with pytest.raises(ValueError, match="one-hot"):
            hard_decode(stack)
        with pytest.raises(ValueError, match="one-hot"):
            hard_decode_oracle(stack)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            hard_decode(_single_bit_stack(), "fuzzy")

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
            # more than 32767 set bits in one row: the int16 prefix wraps
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

    def test_wrapping_row_really_wraps(self):
        plane = np.random.default_rng(103).random((1, 40000)) < 0.9
        assert plane.sum() > np.iinfo(np.int16).max

    def test_dense_int16_counts_equal_float_sums(self):
        plane = np.random.default_rng(107).random((200, 200)) < 0.9
        got = _disk_sum(plane, 90)
        assert got.dtype == np.int16
        assert got.max() > 20000
        assert np.array_equal(got, _disk_sum(plane.astype(np.float64), 90))

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

    def test_per_bin_weights(self):
        scheme = QuantizationScheme(2, (0, 2))
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


class TestCorrupt:
    def test_returns_bool_planes(self):
        # Flips are drawn one plane of floats at a time: a draw of the
        # whole stack alone would hold 8 bytes per bit.
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


def test_stack_plane_count_must_match_scheme():
    with pytest.raises(ValueError):
        BitPlaneStack(np.zeros((3, 4, 4), dtype=bool), make_uniform_scheme(2, 1))
