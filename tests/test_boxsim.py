import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dtmask.boxsim
import dtmask.edt
from dtmask import (
    BinaryMask,
    BitPlaneStack,
    Box,
    Perturbation,
    QuantizationScheme,
    RobustnessRecord,
    TruncatedDistanceMap,
    WindowSpec,
    decode_to_canvas,
    encode,
    encode_window,
    hard_decode,
    interior_mask,
    make_uniform_scheme,
    mask_iou,
    perturb_box,
    robustness_sweep,
    shrink_perturbation,
    truncated_edt,
)
from dtmask.grid import _reach

from helpers import (
    crop_raster_oracle,
    decode_to_canvas_oracle,
    disk_mask,
    disk_raster,
    encode_window_oracle,
    random_mask,
    random_scheme,
    rasterize_box,
    resize_nearest_raster_oracle,
    tight_box,
)


def untruncated(mask: BinaryMask) -> TruncatedDistanceMap:
    """The full-image transform `encode_window` samples its windows from."""
    h, w = mask.pixels.shape
    return truncated_edt(mask, _reach(h, w))


class TestWindowSpec:
    def test_scale_properties(self):
        spec = WindowSpec(Box(0, 0, 14, 7), 28, 28)
        assert spec.min_scale_fraction() == (28, 14)

    def test_fraction_matches_float_min(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            w, h = int(rng.integers(1, 60)), int(rng.integers(1, 60))
            nw, nh = int(rng.integers(1, 60)), int(rng.integers(1, 60))
            spec = WindowSpec(Box(0, 0, w, h), nw, nh)
            num, den = spec.min_scale_fraction()
            assert Fraction(num, den) == min(
                Fraction(nw, w), Fraction(nh, h)
            )

    def test_norm_dims_validated(self):
        with pytest.raises(ValueError):
            WindowSpec(Box(0, 0, 4, 4), 0, 28)

    def test_norm_dims_must_be_integers(self):
        # 2.5 used to pass here and fail later against the stack's shape
        for dims, message in (
            ((2.5, 3), "normalized window width must be an integer, got 2.5"),
            ((3, 28.0), "normalized window height must be an integer, got 28.0"),
        ):
            with pytest.raises(ValueError) as err:
                WindowSpec(Box(0, 0, 4, 4), *dims)
            assert str(err.value) == message
        assert WindowSpec(Box(0, 0, 4, 4), np.int64(3), np.int32(2)).min_scale_fraction() == (2, 4)


class TestPerturbBox:
    def test_identity(self):
        box = Box(3, 5, 17, 11)
        assert perturb_box(box, Perturbation()) == box

    def test_half_scale(self):
        assert perturb_box(Box(0, 0, 10, 10), Perturbation(sx=0.5, sy=0.5)) == Box(
            3, 3, 8, 8
        )

    def test_pure_shift(self):
        assert perturb_box(Box(0, 0, 10, 10), Perturbation(dx=2, dy=-1)) == Box(
            2, -1, 12, 9
        )

    def test_collapse_rejected(self):
        with pytest.raises(ValueError, match="collapses"):
            perturb_box(Box(0, 0, 2, 2), Perturbation(sx=0.1, sy=0.1))

    def test_exact_beyond_float64(self):
        # 2**53 + 1 has no float64; corners neither round nor lose the half
        big = 2**53 + 1
        box = Box(0, 0, 4, 4)
        assert perturb_box(box, Perturbation(dx=big, dy=-big)) == Box(big, -big, big + 4, 4 - big)
        assert perturb_box(box, Perturbation(dx=big, sx=0.75)) == Box(big + 1, 0, big + 4, 4)

    def test_matches_fraction_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            x0, y0 = (int(v) for v in rng.integers(-(2**50), 2**50, 2))
            w, h = (int(v) for v in rng.integers(1, 10**6, 2))
            dx, dy = (int(v) * 4 + 1 for v in rng.integers(-(2**60), 2**60, 2))
            sx, sy = (float(v) for v in rng.uniform(0.01, 3.0, 2))
            box = Box(x0, y0, x0 + w, y0 + h)

            def side(lo, hi, shift, scale):
                mid = Fraction(lo + hi, 2) + shift + Fraction(1, 2)
                half = (hi - lo) * Fraction(scale) / 2
                return math.floor(mid - half), math.floor(mid + half)

            (wx0, wx1), (wy0, wy1) = side(x0, x0 + w, dx, sx), side(y0, y0 + h, dy, sy)
            pert = Perturbation(dx=dx, dy=dy, sx=sx, sy=sy)
            if wx1 <= wx0 or wy1 <= wy0:
                with pytest.raises(ValueError, match="collapses"):
                    perturb_box(box, pert)
            else:
                assert perturb_box(box, pert) == Box(wx0, wy0, wx1, wy1)

    def test_scale_factors_validated(self):
        with pytest.raises(ValueError):
            Perturbation(sx=0.0)
        with pytest.raises(ValueError):
            Perturbation(sy=-1.0)
        for name, value in (("sx", math.inf), ("sy", -math.inf), ("sx", math.nan), ("sy", 10**400)):
            with pytest.raises(ValueError) as err:
                Perturbation(**{name: value})
            assert str(err.value) == f"scale factor {name} must be finite and positive, got {value!r}"

    def test_shifts_must_be_integers(self):
        for name, value in (("dx", 1.5), ("dy", 2.0)):
            with pytest.raises(ValueError) as err:
                Perturbation(**{name: value})
            assert str(err.value) == f"shift {name} must be an integer, got {value!r}"
        pert = Perturbation(dx=np.int64(2), dy=np.int32(-1))
        assert perturb_box(Box(0, 0, 10, 10), pert) == Box(2, -1, 12, 9)


class TestShrinkPerturbation:
    def test_roundtrip_is_inset_box(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            w, h = int(rng.integers(3, 50)), int(rng.integers(3, 50))
            x0, y0 = int(rng.integers(-5, 20)), int(rng.integers(-5, 20))
            box = Box(x0, y0, x0 + w, y0 + h)
            p = int(rng.integers(0, (min(w, h) - 1) // 2 + 1))
            got = perturb_box(box, shrink_perturbation(box, p))
            assert got == Box(x0 + p, y0 + p, x0 + w - p, y0 + h - p)

    def test_swallowing_shrink_rejected(self):
        with pytest.raises(ValueError, match="swallows"):
            shrink_perturbation(Box(0, 0, 6, 6), 3)
        with pytest.raises(ValueError):
            shrink_perturbation(Box(0, 0, 6, 6), -1)

    def test_shrink_must_be_an_integer(self):
        # 1.5 used to shrink each side by 2 px
        for bad in (1.5, 1.0, np.float64(1)):
            with pytest.raises(ValueError, match="^shrink must be an integer, got "):
                shrink_perturbation(Box(0, 0, 10, 10), bad)
        assert shrink_perturbation(Box(0, 0, 10, 10), np.int64(1)) == Perturbation(sx=0.8, sy=0.8)


class TestEncodeWindow:
    def test_native_scale_with_margin_matches_plain_transform(self):
        mask = disk_mask(32, 32, 16, 16, 8)
        box = Box(4, 4, 28, 28)
        scheme = make_uniform_scheme(5, 13)
        got = encode_window(untruncated(mask), WindowSpec(box, box.width, box.height), scheme)
        window = BinaryMask(crop_raster_oracle(mask.pixels, box))
        want = encode(truncated_edt(window, 13), scheme)
        assert np.array_equal(got.planes, want.planes)

    def test_cut_box_keeps_deep_values_at_the_cut(self):
        # the window's right edge slices through the disk, but distances
        # come from the true object boundary, not the cut
        mask = disk_mask(32, 32, 16, 16, 10)
        box = Box(8, 8, 16, 24)
        scheme = make_uniform_scheme(5, 13)
        stack = encode_window(untruncated(mask), WindowSpec(box, box.width, box.height), scheme)
        radii = np.asarray(scheme.radii)
        rep = (radii[:, None, None] * stack.planes).sum(axis=0)
        assert rep[8, 7] >= 7

    def test_background_window_lands_in_first_bin(self):
        mask = disk_mask(32, 32, 8, 8, 3)
        stack = encode_window(
            untruncated(mask), WindowSpec(Box(20, 20, 28, 28), 8, 8), make_uniform_scheme(5, 13)
        )
        assert stack.planes[0].all()

    def test_downscale_keeps_pre_cap_headroom(self):
        # center distance 20 scales to ceil(20 * 7/10) = 14 and clips to
        # r_K = 12; truncating at 12 before scaling would give
        # ceil(12 * 7/10) = 9 instead
        mask = disk_mask(48, 48, 24, 24, 20)
        spec = WindowSpec(Box(4, 4, 44, 44), 28, 28)
        stack = encode_window(untruncated(mask), spec, make_uniform_scheme(13, 13))
        radii = np.asarray(stack.scheme.radii)
        rep = (radii[:, None, None] * stack.planes).sum(axis=0)
        assert rep[14, 14] == 12

    def test_scaling_matches_fraction_oracle(self):
        rng = np.random.default_rng(107)
        scheme = make_uniform_scheme(5, 13)
        for _ in range(25):
            mask = random_mask(rng, min_size=12, max_size=40)
            h, w = mask.pixels.shape
            x0 = int(rng.integers(0, w - 4))
            y0 = int(rng.integers(0, h - 4))
            box = Box(x0, y0, int(rng.integers(x0 + 4, w + 3)),
                      int(rng.integers(y0 + 4, h + 3)))
            nw, nh = int(rng.integers(4, 32)), int(rng.integers(4, 32))
            spec = WindowSpec(box, nw, nh)
            stack = encode_window(untruncated(mask), spec, scheme)

            num, den = spec.min_scale_fraction()
            pre_cap = max(13, math.ceil(Fraction(13 * den, num)))
            window = crop_raster_oracle(truncated_edt(mask, pre_cap).values, box)
            resized = resize_nearest_raster_oracle(window, nw, nh)
            scale = Fraction(num, den)
            want = np.array(
                [
                    [min(math.ceil(int(v) * scale), 13) for v in row]
                    for row in resized
                ]
            )
            got = encode(TruncatedDistanceMap(want, 13), scheme)
            assert np.array_equal(stack.planes, got.planes)

    def test_any_transform_cap_at_or_above_pre_cap_gives_the_same_window(self):
        # min(ceil(v * num / den), cap) is monotone in v and already equals
        # cap at v = pre_cap, so the untruncated transform (cap = reach)
        # gives the window the oracle's per-window pre_cap transform gives.
        rng = np.random.default_rng(113)
        for _ in range(300):
            mask = random_mask(rng, min_size=1, max_size=40)
            scheme = random_scheme(rng)
            h, w = mask.pixels.shape
            x0 = int(rng.integers(-8, w + 4))
            y0 = int(rng.integers(-8, h + 4))
            box = Box(x0, y0, x0 + int(rng.integers(1, 48)), y0 + int(rng.integers(1, 48)))
            nw, nh = int(rng.integers(1, 41)), int(rng.integers(1, 41))
            spec = WindowSpec(box, nw, nh)
            got = encode_window(untruncated(mask), spec, scheme)
            want = encode_window_oracle(mask, spec, scheme)
            assert np.array_equal(got.planes, want.planes)

    def test_transform_capped_below_reach_rejected(self):
        # The least cap that leaves a window unchanged is min(reach, the
        # least stored value that scales to r_K = 10): 8 for a 24 px box
        # upscaled to 28, 11 for a 32 px box downscaled to 28, 37 for one
        # downscaled to 8, and the reach 44 for one downscaled to 4
        # (least value 73).
        mask = disk_mask(32, 32, 16, 16, 10)
        scheme = make_uniform_scheme(5, 13)
        full = truncated_edt(mask, _reach(32, 32))
        cases = (
            (Box(4, 4, 28, 28), 28, 8),
            (Box(0, 0, 32, 32), 28, 11),
            (Box(0, 0, 32, 32), 8, 37),
            (Box(0, 0, 32, 32), 4, 44),
        )
        for box, norm, expected in cases:
            spec = WindowSpec(box, norm, norm)
            need = min(_reach(32, 32), _least_value_at_cap(spec, 10))
            assert need == expected
            got = encode_window(truncated_edt(mask, need), spec, scheme)
            assert np.array_equal(got.planes, encode_window(full, spec, scheme).planes)
            with pytest.raises(ValueError, match=f"capped at {need - 1}, below the {need} "):
                encode_window(truncated_edt(mask, need - 1), spec, scheme)


def _least_value_at_cap(spec, cap):
    """Least stored value v with ceil(v * num / den) >= cap, by counting up."""
    num, den = spec.min_scale_fraction()
    v = 1
    while math.ceil(Fraction(v * num, den)) < cap:
        v += 1
    return v


def _two_bin_stack(size, radius, bits):
    scheme = QuantizationScheme((0, radius))
    planes = np.zeros((2, size, size), dtype=bool)
    for y, x in bits:
        planes[1, y, x] = True
    planes[0] = ~planes[1]
    return BitPlaneStack(planes, scheme)


class TestDecodeToCanvas:
    def test_unit_full_canvas_box_matches_hard_decode(self):
        rng = np.random.default_rng(109)
        scheme = make_uniform_scheme(5, 13)
        for _ in range(20):
            mask = random_mask(rng, max_size=36)
            h, w = mask.pixels.shape
            stack = encode(truncated_edt(mask, 13), scheme)
            spec = WindowSpec(Box(0, 0, w, h), w, h)
            for mode in ("conservative", "literal"):
                got = decode_to_canvas(stack, spec, w, h, mode)
                assert np.array_equal(got.pixels, hard_decode(stack, mode).pixels)

    def test_matches_oracle_on_random_windows(self):
        # boxes hang off every side of the canvas; windows are native or
        # resampled to 28x28; stacks are encoded masks or random one-hot
        rng = np.random.default_rng(127)
        for case in range(200):
            mask = random_mask(rng, min_size=1, max_size=40)
            h, w = mask.pixels.shape
            x0 = int(rng.integers(-w // 2 - 3, w))
            y0 = int(rng.integers(-h // 2 - 3, h))
            bw, bh = int(rng.integers(1, w + 6)), int(rng.integers(1, h + 6))
            box = Box(x0, y0, x0 + bw, y0 + bh)
            norm = (box.width, box.height) if case % 2 else (28, 28)
            spec = WindowSpec(box, *norm)
            if case % 4 < 2:
                scheme = make_uniform_scheme(5, 13) if case % 8 < 4 else random_scheme(rng)
                stack = encode_window(untruncated(mask), spec, scheme)
            else:
                scheme = random_scheme(rng)
                idx = rng.integers(0, scheme.bins, size=(norm[1], norm[0]))
                stack = BitPlaneStack(idx == np.arange(scheme.bins)[:, None, None], scheme)
            for mode in ("conservative", "literal"):
                got = decode_to_canvas(stack, spec, w, h, mode)
                want = decode_to_canvas_oracle(stack, spec, w, h, mode)
                assert np.array_equal(got.pixels, want.pixels)
        # tiny windows on boxes larger than the canvas, often off it,
        # paint disks far wider than the canvas from centres beyond it
        for case in range(40):
            mask = random_mask(rng, min_size=1, max_size=20)
            h, w = mask.pixels.shape
            bw, bh = int(rng.integers(w + 6, 2 * w + 13)), int(rng.integers(h + 6, 2 * h + 13))
            x0, y0 = int(rng.integers(-bw, w)), int(rng.integers(-bh, h))
            box = Box(x0, y0, x0 + bw, y0 + bh)
            norm = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            spec = WindowSpec(box, *norm)
            scheme = random_scheme(rng)
            if case % 2:
                stack = encode_window(untruncated(mask), spec, scheme)
            else:
                idx = rng.integers(0, scheme.bins, size=(norm[1], norm[0]))
                stack = BitPlaneStack(idx == np.arange(scheme.bins)[:, None, None], scheme)
            for mode in ("conservative", "literal"):
                got = decode_to_canvas(stack, spec, w, h, mode)
                want = decode_to_canvas_oracle(stack, spec, w, h, mode)
                assert np.array_equal(got.pixels, want.pixels)

    def test_disk_extends_beyond_the_box(self):
        stack = _two_bin_stack(8, 3, [(4, 7)])
        out = decode_to_canvas(stack, WindowSpec(Box(0, 0, 8, 8), 8, 8), 16, 16)
        assert out.pixels[4, 9]
        assert not out.pixels[4, 10]

    def test_all_first_bin_paints_nothing(self):
        stack = _two_bin_stack(6, 4, [])
        out = decode_to_canvas(stack, WindowSpec(Box(2, 2, 8, 8), 6, 6), 12, 12)
        assert not out.pixels.any()

    def test_upscaled_window_halves_painted_radius(self):
        # scale 2: bin radius 3 in normalized units paints
        # round-half-up(3/2) = 2 image pixels in literal mode
        scheme = QuantizationScheme((0, 3))
        planes = np.zeros((2, 8, 8), dtype=bool)
        planes[1, 0, 0] = True
        planes[0] = ~planes[1]
        stack = BitPlaneStack(planes, scheme)
        out = decode_to_canvas(
            stack, WindowSpec(Box(0, 0, 4, 4), 8, 8), 12, 12, "literal"
        )
        assert out.pixels[0, 2]
        assert not out.pixels[0, 3]

    def test_dimension_mismatch_rejected(self):
        stack = _two_bin_stack(6, 2, [])
        with pytest.raises(ValueError, match="normalized window"):
            decode_to_canvas(stack, WindowSpec(Box(0, 0, 5, 5), 5, 5), 12, 12)

    def test_bad_mode_and_canvas_rejected(self):
        stack = _two_bin_stack(5, 2, [])
        spec = WindowSpec(Box(0, 0, 5, 5), 5, 5)
        with pytest.raises(ValueError, match="mode"):
            decode_to_canvas(stack, spec, 8, 8, "fuzzy")
        with pytest.raises(ValueError):
            decode_to_canvas(stack, spec, 0, 8)


class TestDecodeWindow:
    def test_box_padded_by_largest_painted_radius_cut_to_canvas(self):
        # bin radius 3 paints radius 2 in conservative mode, 3 in literal
        stack = _two_bin_stack(8, 3, [(4, 7)])
        for box, mode, want in (
            (Box(0, 0, 8, 8), "conservative", (0, 0, 10, 10)),
            (Box(4, 5, 12, 13), "conservative", (2, 3, 12, 12)),
            (Box(4, 5, 12, 13), "literal", (1, 2, 14, 14)),
            (Box(-9, 10, -1, 18), "literal", (0, 7, 9, 2)),
        ):
            x, y, pixels = dtmask.boxsim._decode_window(stack, WindowSpec(box, 8, 8), 16, 16, mode)
            assert (x, y, *pixels.shape) == want
            canvas = decode_to_canvas(stack, WindowSpec(box, 8, 8), 16, 16, mode).pixels
            assert np.array_equal(canvas[y : y + pixels.shape[0], x : x + pixels.shape[1]], pixels)
            assert canvas.sum() == pixels.sum()

    @pytest.mark.parametrize("mode", ["conservative", "literal"])
    def test_one_bit_paints_its_whole_disk_on_every_side(self, mode):
        # bin radius 5 paints radius 4 or 5; the disk reaches that far
        # each way from its centre, cut only by the canvas edge
        painted = 4 if mode == "conservative" else 5
        for box, size in ((Box(9, 9, 21, 21), 30), (Box(0, 0, 12, 12), 12)):
            spec = WindowSpec(box, 12, 12)
            for y, x in ((6, 6), (0, 0), (11, 11), (0, 11), (11, 0), (2, 9)):
                stack = _two_bin_stack(12, 5, [(y, x)])
                got = decode_to_canvas(stack, spec, size, size, mode).pixels
                assert np.array_equal(got, disk_raster(size, size, box.y0 + y, box.x0 + x, painted))

    def test_nothing_painted_gives_empty_window_at_origin(self):
        spec = WindowSpec(Box(4, 4, 12, 12), 8, 8)
        for stack, width in ((_two_bin_stack(8, 3, []), 16), (_two_bin_stack(8, 3, [(0, 0)]), 2)):
            # no set bit paints, or every painted disk lies off the canvas
            x, y, pixels = dtmask.boxsim._decode_window(stack, spec, width, 2, "conservative")
            assert (x, y, pixels.shape) == (0, 0, (0, 0))


@st.composite
def decode_cases(draw):
    """A mask from 1x1 up, a box off any side of it, and a native or
    resampled window encoded from the mask or drawn at random."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    mask = BinaryMask(draw(hnp.arrays(bool, (h, w))))
    x0, y0 = draw(st.integers(-w - 4, w + 3)), draw(st.integers(-h - 4, h + 3))
    box = Box(x0, y0, x0 + draw(st.integers(1, w + 8)), y0 + draw(st.integers(1, h + 8)))
    if draw(st.booleans()):
        norm = (box.width, box.height)
    else:
        norm = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    spec = WindowSpec(box, *norm)
    steps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    radii = tuple(int(r) for r in np.cumsum([0, *steps]))
    scheme = QuantizationScheme(radii)
    bins = scheme.bins
    if draw(st.booleans()):
        stack = encode_window(untruncated(mask), spec, scheme)
    else:
        idx = draw(hnp.arrays(np.int64, (norm[1], norm[0]), elements=st.integers(0, bins - 1)))
        stack = BitPlaneStack(idx == np.arange(bins)[:, None, None], scheme)
    return stack, spec, w, h, draw(st.sampled_from(["conservative", "literal"]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(decode_cases())
def test_decode_to_canvas_equals_oracle_property(case):
    stack, spec, w, h, mode = case
    got = decode_to_canvas(stack, spec, w, h, mode)
    assert np.array_equal(got.pixels, decode_to_canvas_oracle(stack, spec, w, h, mode).pixels)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    hnp.arrays(bool, st.tuples(st.integers(1, 20), st.integers(1, 20))).filter(np.any),
    st.tuples(*[st.integers(0, 5)] * 4),
    st.integers(2, 6),
)
def test_native_identity_sweep_recovers_interior_property(pixels, margins, bins):
    # any box holding the object, even one hanging off the canvas
    mask = BinaryMask(pixels)
    tight = tight_box(mask)
    left, top, right, bottom = margins
    box = Box(tight.x0 - left, tight.y0 - top, tight.x1 + right, tight.y1 + bottom)
    records = robustness_sweep(mask, box, [Perturbation()], make_uniform_scheme(bins, 13))
    assert records[0].iou_beyond == 1.0


class TestRobustnessSweep:
    def test_identity_perturbation_recovers_interior_exactly(self):
        mask = disk_mask(32, 32, 16, 16, 10)
        records = robustness_sweep(mask, Box(4, 4, 28, 28), [Perturbation()])
        assert records[0].iou_beyond == 1.0
        assert records[0].iou_inside == 1.0

    def test_beyond_never_below_inside(self):
        rng = np.random.default_rng(113)
        mask = disk_mask(40, 40, 20, 20, 12)
        box = tight_box(mask)
        perts = [
            Perturbation(
                dx=int(rng.integers(-6, 7)),
                dy=int(rng.integers(-6, 7)),
                sx=float(rng.uniform(0.5, 1.4)),
                sy=float(rng.uniform(0.5, 1.4)),
            )
            for _ in range(30)
        ]
        for rec in robustness_sweep(mask, box, perts):
            assert rec.iou_beyond >= rec.iou_inside

    def test_far_shift_finds_nothing(self):
        mask = disk_mask(32, 32, 10, 10, 6)
        records = robustness_sweep(mask, Box(4, 4, 16, 16), [Perturbation(dx=100)])
        assert records[0].iou_beyond == 0.0
        assert records[0].iou_inside == 0.0

    def test_normalized_window_smoke(self):
        # dominance is a unit-scale theorem; resampled windows only
        # promise valid IoUs in input order
        mask = disk_mask(36, 36, 18, 18, 11)
        box = Box(7, 7, 29, 29)
        perts = [Perturbation(dx=d) for d in (-2, 0, 2)]
        records = robustness_sweep(mask, box, perts, norm_size=(28, 28))
        assert [r.dx for r in records] == [-2, 0, 2]
        for rec in records:
            assert 0.0 <= rec.iou_beyond <= 1.0
            assert 0.0 <= rec.iou_inside <= 1.0
            assert rec.iou_beyond > 0.5

    def test_matches_per_window_oracle_on_seeded_sweeps(self):
        # each record against the reference decode, a full-canvas box mask
        # and full-canvas `mask_iou`; shrinks change the box size and so,
        # at 28x28, the per-window pre_cap of the oracle; shifts up to the
        # canvas size push boxes off every side of the canvas
        rng = np.random.default_rng(131)
        for case in range(24):
            mask = random_mask(rng, min_size=8, max_size=40)
            h, w = mask.pixels.shape
            scheme = random_scheme(rng) if case % 4 < 2 else make_uniform_scheme(5, 13)
            norm = None if case % 2 else (28, 28)
            x0, y0 = int(rng.integers(-4, w - 4)), int(rng.integers(-4, h - 4))
            base = Box(x0, y0, x0 + int(rng.integers(6, w + 9)), y0 + int(rng.integers(6, h + 9)))
            d = int(rng.integers(1, max(w, h) + 1))
            perts = [
                Perturbation(dx=dx, dy=dy, sx=scale.sx, sy=scale.sy)
                for scale in (shrink_perturbation(base, p) for p in range(3))
                for dx, dy in ((0, 0), (d, 0), (-d, 0), (0, d), (0, -d), (-d, d))
            ]
            target = interior_mask(mask)
            for mode in ("conservative", "literal"):
                records = robustness_sweep(mask, base, perts, scheme, norm, mode)
                for pert, rec in zip(perts, records):
                    box = perturb_box(base, pert)
                    spec = WindowSpec(box, *(norm or (box.width, box.height)))
                    stack = encode_window_oracle(mask, spec, scheme)
                    beyond = decode_to_canvas_oracle(stack, spec, w, h, mode)
                    inside = beyond.pixels & rasterize_box(box, w, h).pixels
                    assert (rec.dx, rec.dy, rec.sx, rec.sy) == (pert.dx, pert.dy, pert.sx, pert.sy)
                    assert rec.iou_beyond == mask_iou(beyond, target)
                    assert rec.iou_inside == mask_iou(BinaryMask(inside), target)
                    assert type(rec.iou_beyond) is float and type(rec.iou_inside) is float

    def test_one_iou_matrix_call_per_sweep(self, monkeypatch):
        calls = []

        def counting_iou_matrix(a, b):
            calls.append((len(a.areas), len(b.areas)))
            return metrics_iou_matrix(a, b)

        metrics_iou_matrix = dtmask.boxsim._iou_matrix
        monkeypatch.setattr(dtmask.boxsim, "_iou_matrix", counting_iou_matrix)
        mask = disk_mask(40, 40, 20, 20, 12)
        perts = [Perturbation(dx=dx, sx=s, sy=s) for dx in (-3, 0, 3, 60) for s in (0.8, 1.0)]
        for norm in ((28, 28), None):
            calls.clear()
            robustness_sweep(mask, tight_box(mask), perts, norm_size=norm)
            # the unclipped and the clipped decode of every perturbation
            # against the one target
            assert calls == [(2 * len(perts), 1)]

    def test_no_canvas_sized_allocation_per_perturbation(self, monkeypatch):
        # a small object on a large canvas: with the transform and the
        # target computed ahead, nothing a sweep allocates may come near
        # one bool canvas, whatever the number of perturbations
        side = 1024
        mask = disk_mask(side, side, 500, 520, 9)
        target = interior_mask(mask)
        transforms = {}

        def transform_once(m, cap):
            if cap not in transforms:
                transforms[cap] = truncated_edt(m, cap)
            return transforms[cap]

        monkeypatch.setattr(dtmask.boxsim, "truncated_edt", transform_once)
        monkeypatch.setattr(dtmask.boxsim, "interior_mask", lambda m: target)
        perts = [Perturbation(dx=dx, dy=dy) for dx in (-4, 0, 4) for dy in (-4, 0, 4)]
        for norm in (None, (28, 28)):
            want = robustness_sweep(mask, tight_box(mask), perts, norm_size=norm)
            tracemalloc.start()
            try:
                got = robustness_sweep(mask, tight_box(mask), perts, norm_size=norm)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want
            assert peak < side * side // 8

    def test_one_transform_per_sweep(self, monkeypatch):
        caps = []

        def counting_edt(mask, radius_cap):
            caps.append(radius_cap)
            return truncated_edt(mask, radius_cap)

        for module in (dtmask.edt, dtmask.boxsim):
            monkeypatch.setattr(module, "truncated_edt", counting_edt, raising=False)
        mask = disk_mask(40, 40, 20, 20, 12)
        perts = [Perturbation(dx=dx, sx=s, sy=s) for dx in (-3, 0, 3) for s in (0.8, 1.0)]
        for norm in ((28, 28), (8, 8), (2, 2), None):
            caps.clear()
            robustness_sweep(mask, tight_box(mask), perts, norm_size=norm)
            need = 0
            for pert in perts:
                box = perturb_box(tight_box(mask), pert)
                spec = WindowSpec(box, *(norm or (box.width, box.height)))
                need = max(need, _least_value_at_cap(spec, 10))
            assert caps == [min(_reach(40, 40), need)]
        # native windows read up to r_K = 10 of the default scheme (5, 13)
        assert caps == [10]

    def test_record_range_validated(self):
        with pytest.raises(ValueError):
            RobustnessRecord(0, 0, 1.0, 1.0, 1.2, 0.5)


def test_clipping_matches_manual_intersection():
    mask = disk_mask(32, 32, 16, 16, 10)
    box = Box(10, 6, 22, 26)
    scheme = make_uniform_scheme(5, 13)
    spec = WindowSpec(box, box.width, box.height)
    stack = encode_window(untruncated(mask), spec, scheme)
    beyond = decode_to_canvas(stack, spec, 32, 32)
    clipped = np.zeros((32, 32), dtype=bool)
    clipped[box.y0 : box.y1, box.x0 : box.x1] = beyond.pixels[
        box.y0 : box.y1, box.x0 : box.x1
    ]
    records = robustness_sweep(mask, box, [Perturbation()], scheme=scheme)
    target = interior_mask(mask)
    assert records[0].iou_beyond == mask_iou(beyond, target)
    assert records[0].iou_inside == mask_iou(BinaryMask(clipped), target)
