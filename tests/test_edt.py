import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dtmask import (
    BinaryMask,
    Box,
    TruncatedDistanceMap,
    boundary_set,
    brute_force_edt,
    edt_with_external_boundary,
    interior_mask,
    truncated_edt,
)
from dtmask.edt import BAND_LIMIT
from dtmask.grid import _reach

from helpers import crop_raster_oracle, disk_mask, random_mask


class TestBoundarySet:
    def test_all_background(self):
        q = boundary_set(BinaryMask(np.zeros((3, 4), dtype=bool)))
        assert q.pixels.all()

    def test_thin_strip_is_all_boundary(self):
        q = boundary_set(BinaryMask(np.array([[0, 1, 0]], dtype=bool)))
        assert q.pixels.all()

    def test_solid_block_boundary_is_border_ring(self):
        q = boundary_set(BinaryMask(np.ones((5, 5), dtype=bool))).pixels
        assert q.sum() == 16
        assert not q[1:4, 1:4].any()

    def test_member_definition_per_pixel(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = random_mask(rng, max_size=24)
            q = boundary_set(m).pixels
            h, w = m.pixels.shape
            for y in range(h):
                for x in range(w):
                    if not m.pixels[y, x]:
                        want = True
                    else:
                        want = False
                        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                            ny, nx = y + dy, x + dx
                            if not (0 <= ny < h and 0 <= nx < w) or not m.pixels[ny, nx]:
                                want = True
                    assert q[y, x] == want


SOLID_5X5_R10 = np.array(
    [
        [0, 0, 0, 0, 0],
        [0, 1, 1, 1, 0],
        [0, 1, 2, 1, 0],
        [0, 1, 1, 1, 0],
        [0, 0, 0, 0, 0],
    ],
    dtype=np.int32,
)


class TestTruncatedEdt:
    def test_solid_block_frozen(self):
        d = truncated_edt(BinaryMask(np.ones((5, 5), dtype=bool)), 10)
        assert np.array_equal(d.values, SOLID_5X5_R10)

    def test_radius_one_marks_interior(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            m = random_mask(rng, max_size=32)
            d = truncated_edt(m, 1)
            assert set(np.unique(d.values)) <= {0, 1}
            assert np.array_equal(d.values == 1, interior_mask(m).pixels)

    def test_matches_oracle(self):
        rng = np.random.default_rng(29)
        cases = []
        for _ in range(200):
            m = BinaryMask(rng.random((32, 32)) < rng.uniform(0.1, 0.95))
            cases += [(m, cap) for cap in (1, 5, 20, 10**9, 2**31 - 1)]
        # Both routes, with bands around the crossover and the reach; the
        # disk and the solid block hold distances past the crossover.
        wide = (
            BinaryMask(rng.random((96, 104)) < 0.8),
            disk_mask(140, 132, 70, 66, 66),
            BinaryMask(np.ones((132, 140), dtype=bool)),
        )
        for m in wide:
            reach = _reach(m.height, m.width)
            caps = (BAND_LIMIT - 1, BAND_LIMIT, BAND_LIMIT + 1, reach - 1, reach, 2**31 - 1)
            cases += [(m, cap) for cap in caps]
        for shape in ((1, 57), (57, 1)):
            m = BinaryMask(rng.random(shape) < 0.7)
            cases += [(m, cap) for cap in (1, 5, 2**31 - 1)]
        for m, cap in cases:
            fast = truncated_edt(m, cap)
            ref = brute_force_edt(m, cap)
            assert np.array_equal(fast.values, ref.values), (m.height, m.width, cap)

    def test_huge_cap_allocates_no_squares_table(self):
        # the table of squares stops at the raster's reach, not at the cap
        m = disk_mask(64, 64, 32, 32, 20)
        truncated_edt(m, 5)  # warm up imports and caches outside the trace
        tracemalloc.start()
        try:
            d = truncated_edt(m, 2**31 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert np.array_equal(d.values, brute_force_edt(m, 2**31 - 1).values)

    def test_rejects_bad_cap(self):
        m = BinaryMask(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            truncated_edt(m, 0)
        with pytest.raises(ValueError):
            brute_force_edt(m, 0)

    def test_every_cap_check_is_one_value_error(self):
        # the transforms, the window view and the value type check a cap alike
        m = BinaryMask(np.ones((2, 2), dtype=bool))
        window = Box(0, 0, 2, 2)
        for cap, want in (
            (1.5, "radius cap must be an integer, got 1.5"),
            (0, "radius cap must be >= 1, got 0"),
        ):
            for make in (
                lambda: truncated_edt(m, cap),
                lambda: brute_force_edt(m, cap),
                lambda: edt_with_external_boundary(m, window, cap),
                lambda: TruncatedDistanceMap(np.zeros((2, 2), int), cap),
            ):
                with pytest.raises(ValueError) as err:
                    make()
                assert str(err.value) == want

    def test_zero_set_is_boundary_set(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            m = random_mask(rng)
            d = truncated_edt(m, 7)
            assert np.array_equal(d.values == 0, boundary_set(m).pixels)

    def test_four_neighbor_lipschitz(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            m = random_mask(rng)
            v = truncated_edt(m, 9).values
            assert (np.abs(np.diff(v, axis=0)) <= 1).all()
            assert (np.abs(np.diff(v, axis=1)) <= 1).all()

    def test_monotone_in_cap(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = random_mask(rng)
            lo = truncated_edt(m, 4).values
            hi = truncated_edt(m, 11).values
            assert (hi >= lo).all()
            below = lo < 4
            assert np.array_equal(lo[below], hi[below])

    def test_disk_values_decay_toward_boundary(self):
        m = disk_mask(31, 31, 15, 15, 12)
        v = truncated_edt(m, 20).values
        center = v[15, 15]
        assert center == v.max()
        ray = v[15, 15:28]  # outward along +x to past the boundary
        assert (np.diff(ray) <= 0).all()


class TestTruncatedDistanceMap:
    def test_values_beyond_int32_rejected_not_wrapped(self):
        with pytest.raises(ValueError, match="exceed 2147483647"):
            TruncatedDistanceMap(np.array([[2**32, 1]]), 2**33)

    def test_values_beyond_cap_or_negative_rejected(self):
        with pytest.raises(ValueError, match="exceed 5"):
            TruncatedDistanceMap(np.array([[6, 1]]), 5)
        with pytest.raises(ValueError, match="non-negative"):
            TruncatedDistanceMap(np.array([[-1, 1]]), 5)


class TestBruteForceEdt:
    def test_empty_object_all_zero(self):
        d = brute_force_edt(BinaryMask(np.zeros((6, 9), dtype=bool)), 5)
        assert not d.values.any()

    def test_ceiling_rule_on_known_distances(self):
        # lone Q pixels at the corners of an all-true raster give exact
        # per-pixel distances we can verify with math.isqrt directly
        m = BinaryMask(np.ones((7, 7), dtype=bool))
        d = brute_force_edt(m, 100).values
        q = np.argwhere(boundary_set(m).pixels)
        for y in range(7):
            for x in range(7):
                d2 = min((y - qy) ** 2 + (x - qx) ** 2 for qy, qx in q)
                want = 0 if d2 == 0 else math.isqrt(d2 - 1) + 1
                assert d[y, x] == min(want, 100)


class TestExternalBoundary:
    def test_window_with_margin_equals_plain_transform(self):
        m = disk_mask(32, 32, 16, 16, 6)
        box = Box(4, 4, 28, 28)  # margin 6 >= radius cap
        out = edt_with_external_boundary(m, box, 5)
        plain = truncated_edt(BinaryMask(crop_raster_oracle(m.pixels, box)), 5)
        assert np.array_equal(out.values, plain.values)

    def test_cut_disk_keeps_true_distances(self):
        m = disk_mask(32, 32, 16, 16, 10)
        box = Box(8, 8, 16, 24)  # right edge slices through the center column
        out = edt_with_external_boundary(m, box, 13)
        # window pixel on the disk diameter at the cut: its in-window
        # distance to the box edge is 0 but the true boundary is far
        assert out.values[8, 7] >= 9
        # oracle route: full-grid brute force then crop
        ref = brute_force_edt(m, 13).values[8:24, 8:16]
        assert np.array_equal(out.values, ref)

    def test_all_background_zero(self):
        m = BinaryMask(np.zeros((16, 16), dtype=bool))
        out = edt_with_external_boundary(m, Box(2, 2, 10, 10), 4)
        assert not out.values.any()

    def test_out_of_image_window_pixels_read_zero(self):
        m = disk_mask(16, 16, 8, 8, 6)
        box = Box(-4, -4, 12, 12)
        out = edt_with_external_boundary(m, box, 8)
        assert not out.values[:4, :].any()
        assert not out.values[:, :4].any()


@st.composite
def edt_cases(draw):
    """A block from 1x1 up, random or solid with a few holes so that it
    has a deep interior, or a strip one to three pixels thin; and a cap
    on either side of `BAND_LIMIT`, below the deepest possible value, at
    or below the reach, or far past it."""
    kind = draw(st.sampled_from(["random", "solid", "row", "column"]))
    if kind in ("random", "solid"):
        shape = (draw(st.integers(1, 90)), draw(st.integers(1, 90)))
    else:
        strip = (draw(st.integers(1, 3)), draw(st.integers(1, 120)))
        shape = strip if kind == "row" else strip[::-1]
    fill = st.just(True) if kind == "solid" else None
    pixels = draw(hnp.arrays(bool, shape, fill=fill))
    reach = _reach(*shape)
    caps = (1, BAND_LIMIT - 1, BAND_LIMIT, BAND_LIMIT + 1, reach, 50 * reach, 2**40)
    deepest = (min(shape) + 1) // 2
    cap = draw(st.sampled_from(caps) | st.integers(1, deepest) | st.integers(1, reach))
    return BinaryMask(pixels), cap


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(edt_cases())
# a solid block deeper than the band, capped on either side of BAND_LIMIT
@example((BinaryMask(np.ones((90, 88), dtype=bool)), BAND_LIMIT - 1))
@example((BinaryMask(np.ones((90, 88), dtype=bool)), BAND_LIMIT))
@example((BinaryMask(np.ones((90, 88), dtype=bool)), BAND_LIMIT + 1))
def test_truncated_edt_equals_brute_force_property(case):
    mask, cap = case
    got, want = truncated_edt(mask, cap), brute_force_edt(mask, cap)
    assert got.radius_cap == want.radius_cap == cap
    assert np.array_equal(got.values, want.values)
