import math
from fractions import Fraction

import numpy as np
import pytest

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
    crop,
    decode_to_canvas,
    encode,
    encode_window,
    hard_decode,
    interior_mask,
    make_uniform_scheme,
    mask_iou,
    perturb_box,
    rasterize_box,
    robustness_sweep,
    shrink_perturbation,
    truncated_edt,
)
from dtmask.grid import _reach

from helpers import (
    crop_raster_oracle,
    decode_to_canvas_oracle,
    disk_mask,
    encode_window_oracle,
    random_mask,
    random_scheme,
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


class TestEncodeWindow:
    def test_native_scale_with_margin_matches_plain_transform(self):
        mask = disk_mask(32, 32, 16, 16, 8)
        box = Box(4, 4, 28, 28)
        scheme = make_uniform_scheme(5, 13)
        got = encode_window(untruncated(mask), WindowSpec(box, box.width, box.height), scheme)
        want = encode(truncated_edt(crop(mask, box), 13), scheme)
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
        # center distance 20 truncates to ceil(13 / (28/40)) = 19 before
        # scaling, then scales to ceil(19 * 7/10) = 14 and clips to 13;
        # truncating at 13 up front would scale to 10 instead
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
            window = crop_raster_oracle(truncated_edt(mask, pre_cap).values, box, 0)
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
        # least stored value that scales to the scheme cap 13): 11 for a
        # 24 px box upscaled to 28, 14 for a 32 px box downscaled to 28,
        # the reach 44 for a 32 px box downscaled to 8 (least value 49).
        mask = disk_mask(32, 32, 16, 16, 10)
        scheme = make_uniform_scheme(5, 13)
        full = truncated_edt(mask, _reach(32, 32))
        cases = ((Box(4, 4, 28, 28), 28, 11), (Box(0, 0, 32, 32), 28, 14), (Box(0, 0, 32, 32), 8, 44))
        for box, norm, expected in cases:
            spec = WindowSpec(box, norm, norm)
            need = min(_reach(32, 32), _least_value_at_cap(spec, 13))
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
    scheme = QuantizationScheme(radius, (0, radius))
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
        scheme = QuantizationScheme(3, (0, 3))
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
        # shrinks change the box size and so, at 28x28, the per-window
        # pre_cap of the oracle; shifts up to the canvas size push boxes
        # off the canvas
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
                for dx, dy in ((0, 0), (d, 0), (0, -d), (-d, d))
            ]
            records = robustness_sweep(mask, base, perts, scheme, norm)
            target = interior_mask(mask)
            for pert, rec in zip(perts, records):
                box = perturb_box(base, pert)
                spec = WindowSpec(box, *(norm or (box.width, box.height)))
                beyond = decode_to_canvas(encode_window_oracle(mask, spec, scheme), spec, w, h)
                inside = beyond.pixels & rasterize_box(box, w, h).pixels
                assert rec.iou_beyond == mask_iou(beyond, target)
                assert rec.iou_inside == mask_iou(BinaryMask(inside), target)

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
                need = max(need, _least_value_at_cap(spec, 13))
            assert caps == [min(_reach(40, 40), need)]
        assert caps == [13]  # native windows read up to the scheme cap

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
