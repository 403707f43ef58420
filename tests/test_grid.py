import numpy as np
import pytest

from dtmask import (
    BinaryMask,
    BitPlaneStack,
    Box,
    BoxProposal,
    LabelMap,
    ProbPlaneStack,
    QuantizationScheme,
    TruncatedDistanceMap,
    extract_instance,
)
from dtmask.grid import MAX_LABEL, sample_raster

from helpers import (
    canvas_mask_oracle,
    crop_raster_oracle,
    random_mask,
    rasterize_box,
    resize_nearest_raster_oracle,
)


SCHEME = QuantizationScheme((0, 1, 3))
RASTER_SHAPE = "raster must be 2-D with positive height and width"
STACK_SHAPE = "expected a (bins, height, width) stack with 3 planes"
PLANE_SIDES = "planes must have positive height and width"

# Each raster value type: its constructor, array field, stored dtype,
# and the leading axis of a valid array (none, or one plane per bin).
VALUE_TYPES = {
    "BinaryMask": (BinaryMask, "pixels", bool, ()),
    "LabelMap": (LabelMap, "labels", np.int32, ()),
    "TruncatedDistanceMap": (lambda a: TruncatedDistanceMap(a, 5), "values", np.int32, ()),
    "BitPlaneStack": (lambda a: BitPlaneStack(a, SCHEME), "planes", bool, (3,)),
    "ProbPlaneStack": (lambda a: ProbPlaneStack(a, SCHEME), "planes", np.float64, (3,)),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_copy_freeze_and_read_shape_off_the_last_two_axes(name):
    make, field, dtype, lead = VALUE_TYPES[name]
    # the stored dtype itself, where a view would alias, and another one
    for src_dtype in (dtype, np.int64):
        src = np.ones(lead + (2, 3), dtype=src_dtype)
        value = make(src)
        arr = getattr(value, field)
        assert arr.dtype == dtype
        assert (value.height, value.width) == arr.shape[-2:] == (2, 3)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
        assert src.flags.writeable and not np.shares_memory(arr, src)
        src[...] = 0  # the caller's array changes; the value does not
        assert (arr == 1).all()
    # 1-D, 4-D, a stack with the wrong plane count, and a zero side
    wrong_planes = (4, 2, 3) if lead else (3, 2, 3)
    for shape, message in (
        ((3,), STACK_SHAPE if lead else RASTER_SHAPE),
        ((1, 3, 2, 3), STACK_SHAPE if lead else RASTER_SHAPE),
        (wrong_planes, STACK_SHAPE if lead else RASTER_SHAPE),
        (lead + (0, 3), PLANE_SIDES if lead else RASTER_SHAPE),
        (lead + (2, 0), PLANE_SIDES if lead else RASTER_SHAPE),
    ):
        with pytest.raises(ValueError) as err:
            make(np.ones(shape, dtype=dtype))
        assert str(err.value) == message


class TestBinaryMask:
    def test_rejects_empty_and_non_2d(self):
        with pytest.raises(ValueError):
            BinaryMask(np.zeros((0, 3), dtype=bool))
        with pytest.raises(ValueError):
            BinaryMask(np.zeros((3,), dtype=bool))

    def test_pixels_read_only(self):
        m = BinaryMask(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            m.pixels[0, 0] = True

    def test_does_not_freeze_caller_array(self):
        src = np.zeros((2, 2), dtype=bool)
        BinaryMask(src)
        src[0, 0] = True  # caller's array stays writable

    def test_dims_and_area(self):
        m = BinaryMask(np.array([[1, 0, 1], [0, 0, 0]], dtype=bool))
        assert (m.width, m.height, m.area) == (3, 2, 2)


class TestLabelMap:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LabelMap(np.array([[0, -1]]))

    def test_rejects_values_beyond_int32(self):
        assert LabelMap(np.array([[0, MAX_LABEL]])).instance_ids() == [MAX_LABEL]
        with pytest.raises(ValueError, match="exceed"):
            LabelMap(np.array([[0, 2**32 + 1]], dtype=np.int64))

    def test_instance_ids_sorted_positive(self):
        lm = LabelMap(np.array([[3, 0], [1, 3]]))
        assert lm.instance_ids() == [1, 3]


class TestBox:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Box(2, 0, 2, 5)
        with pytest.raises(ValueError):
            Box(0, 5, 4, 5)

    def test_dims(self):
        b = Box(-2, 1, 3, 4)
        assert (b.width, b.height, b.box_area) == (5, 3, 15)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="^box coordinate x0 must be an integer, got 0.5$"):
            Box(0.5, 0, 2, 2)
        with pytest.raises(ValueError, match="^box coordinate y1 must be an integer, got '2'$"):
            Box(0, 0, 2, "2")


class TestBoxProposal:
    def test_score_range(self):
        with pytest.raises(ValueError):
            BoxProposal(Box(0, 0, 1, 1), 1.5)
        with pytest.raises(ValueError):
            BoxProposal(Box(0, 0, 1, 1), -0.1)

    def test_anchor_follows_the_mask_shape(self):
        box = Box(2, 1, 5, 3)
        assert BoxProposal(box, 0.5, BinaryMask(np.ones((2, 3), bool))).mask_anchor == "box"
        for h, w in ((3, 2), (2, 2), (4, 6), (1, 1)):
            mask = BinaryMask(np.ones((h, w), bool))
            assert BoxProposal(box, 0.5, mask).mask_anchor == "canvas"
        assert BoxProposal(box, 0.5).mask_anchor == "canvas"

    def test_canvas_mask_pastes_and_clips(self):
        mask = BinaryMask(np.ones((2, 3), dtype=bool))
        p = BoxProposal(Box(4, 1, 7, 3), 0.5, mask)
        out = p.canvas_mask(6, 4).pixels
        # brute-force placement: true iff inside the box and inside canvas
        for y in range(4):
            for x in range(6):
                assert out[y, x] == (1 <= y < 3 and 4 <= x < 7)

    def test_canvas_window_and_mask_match_scattered_pixels(self):
        rng = np.random.default_rng(163)
        for _ in range(200):
            w, h = (int(v) for v in rng.integers(1, 12, 2))
            bw, bh = (int(v) for v in rng.integers(1, 15, 2))
            x0 = int(rng.integers(-bw - 2, w + 3))
            y0 = int(rng.integers(-bh - 2, h + 3))
            mask = BinaryMask(rng.random((bh, bw)) < 0.5)
            p = BoxProposal(Box(x0, y0, x0 + bw, y0 + bh), 0.5, mask)
            want = canvas_mask_oracle(p, w, h).pixels
            assert np.array_equal(p.canvas_mask(w, h).pixels, want)
            x, y, window = p.canvas_window(w, h)
            on_canvas = x0 < w and y0 < h and x0 + bw > 0 and y0 + bh > 0
            assert (window.size > 0) == on_canvas
            pasted = np.zeros((h, w), dtype=bool)
            pasted[y : y + window.shape[0], x : x + window.shape[1]] = window
            assert np.array_equal(pasted, want)

    def test_canvas_mask_requires_matching_canvas(self):
        mask = BinaryMask(np.ones((4, 6), dtype=bool))
        p = BoxProposal(Box(0, 0, 2, 2), 0.5, mask)
        assert p.canvas_mask(6, 4) is mask
        with pytest.raises(ValueError):
            p.canvas_mask(5, 4)

    def test_mismatch_error_names_the_proposal(self):
        p = BoxProposal(Box(2, 1, 5, 3), 0.5, BinaryMask(np.ones((4, 5), bool)))
        with pytest.raises(ValueError) as err:
            p.canvas_window(6, 4)
        assert str(err.value) == (
            "mask shape 5x4 of the proposal with box (2, 1, 5, 3) matches "
            "neither its box extent 3x2 nor the canvas 6x4"
        )

    def test_canvas_mask_without_mask(self):
        with pytest.raises(ValueError):
            BoxProposal(Box(0, 0, 1, 1), 0.5).canvas_mask(2, 2)
        want = r"^the proposal with box \(10, 8, 32, 30\) has no mask$"
        with pytest.raises(ValueError, match=want):
            BoxProposal(Box(10, 8, 32, 30), 0.5).canvas_window(40, 40)


class TestExtractInstance:
    def test_basic(self):
        lm = LabelMap(np.array([[1, 0], [0, 2]]))
        assert np.array_equal(
            extract_instance(lm, 1).pixels, np.array([[True, False], [False, False]])
        )

    def test_absent_id(self):
        lm = LabelMap(np.array([[1, 0], [0, 2]]))
        with pytest.raises(ValueError, match="not present"):
            extract_instance(lm, 3)
        with pytest.raises(ValueError):
            extract_instance(lm, 0)

    def test_no_instance_id_scan_per_call(self, monkeypatch):
        def scan(self):
            raise AssertionError("instance_ids() called")

        monkeypatch.setattr(LabelMap, "instance_ids", scan)
        lm = LabelMap(np.array([[1, 0], [0, 2]]))
        assert np.array_equal(
            extract_instance(lm, 2).pixels, np.array([[False, False], [False, True]])
        )
        with pytest.raises(ValueError, match="instance id 3 not present in label map"):
            extract_instance(lm, 3)

    def test_union_and_disjointness(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            labels = rng.integers(0, 6, size=(64, 64))
            lm = LabelMap(labels)
            masks = [extract_instance(lm, i) for i in lm.instance_ids()]
            union = np.zeros((64, 64), dtype=bool)
            for m in masks:
                assert not (union & m.pixels).any()  # pairwise disjoint
                union |= m.pixels
            assert np.array_equal(union, labels > 0)


def crop(raster, box):
    """`sample_raster` at the box's own extent: a crop."""
    return sample_raster(raster, box, box.width, box.height)


def resize(raster, out_width, out_height):
    """`sample_raster` over the whole raster: a nearest resize."""
    h, w = raster.shape
    return sample_raster(raster, Box(0, 0, w, h), out_width, out_height)


class TestCrop:
    def test_full_image_identity(self):
        rng = np.random.default_rng(3)
        m = random_mask(rng)
        out = crop(m.pixels, Box(0, 0, m.width, m.height))
        assert np.array_equal(out, m.pixels)

    def test_fully_outside_pads(self):
        m = BinaryMask(np.ones((4, 4), dtype=bool))
        out = crop(m.pixels, Box(10, 10, 13, 12))
        assert out.shape == (2, 3) and not out.any()

    def test_against_per_pixel_copy(self):
        rng = np.random.default_rng(11)
        m = BinaryMask(rng.random((8, 8)) < 0.5)
        box = Box(2, 2, 6, 6)
        out = crop(m.pixels, box)
        for y in range(box.height):
            for x in range(box.width):
                assert out[y, x] == m.pixels[box.y0 + y, box.x0 + x]

    def test_overhanging_box_per_pixel(self):
        rng = np.random.default_rng(12)
        m = BinaryMask(rng.random((6, 7)) < 0.5)
        box = Box(-2, 3, 4, 9)
        out = crop(m.pixels, box)
        for y in range(box.height):
            for x in range(box.width):
                gy, gx = box.y0 + y, box.x0 + x
                want = m.pixels[gy, gx] if 0 <= gy < 6 and 0 <= gx < 7 else False
                assert out[y, x] == want

    def test_composition(self):
        # crop of a crop equals a single crop with the inner box shifted
        # into the outer frame, as long as the inner box stays inside it
        rng = np.random.default_rng(13)
        for _ in range(25):
            m = random_mask(rng, min_size=8, max_size=32)
            ox0 = int(rng.integers(-3, m.width - 4))
            oy0 = int(rng.integers(-3, m.height - 4))
            outer = Box(ox0, oy0, ox0 + int(rng.integers(5, 10)), oy0 + int(rng.integers(5, 10)))
            ix0 = int(rng.integers(0, outer.width - 2))
            iy0 = int(rng.integers(0, outer.height - 2))
            inner = Box(ix0, iy0, ix0 + int(rng.integers(1, outer.width - ix0)), iy0 + int(rng.integers(1, outer.height - iy0)))
            composed = Box(
                outer.x0 + inner.x0,
                outer.y0 + inner.y0,
                outer.x0 + inner.x1,
                outer.y0 + inner.y1,
            )
            a = crop(crop(m.pixels, outer), inner)
            b = crop(m.pixels, composed)
            assert np.array_equal(a, b)


class TestResizeNearest:
    def test_identity(self):
        rng = np.random.default_rng(5)
        m = random_mask(rng)
        out = resize(m.pixels, m.width, m.height)
        assert np.array_equal(out, m.pixels)

    def test_block_replication(self):
        m = BinaryMask(np.array([[1, 0], [0, 0]], dtype=bool))
        out = resize(m.pixels, 4, 4)
        want = np.zeros((4, 4), dtype=bool)
        want[:2, :2] = True
        assert np.array_equal(out, want)

    def test_integer_factor_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = random_mask(rng, min_size=4, max_size=32)
            f = int(rng.integers(2, 5))
            up = resize(m.pixels, m.width * f, m.height * f)
            back = resize(up, m.width, m.height)
            assert np.array_equal(back, m.pixels)

    def test_sampling_rule_matches_float_form(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = random_mask(rng, min_size=2, max_size=24)
            ow = int(rng.integers(1, 40))
            oh = int(rng.integers(1, 40))
            got = resize(m.pixels, ow, oh)
            for i in range(oh):
                for j in range(ow):
                    sy = int(np.floor((i + 0.5) * m.height / oh))
                    sx = int(np.floor((j + 0.5) * m.width / ow))
                    assert got[i, j] == m.pixels[sy, sx]

    def test_rejects_degenerate_target(self):
        m = BinaryMask(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            resize(m.pixels, 0, 4)

    def test_raster_variant_preserves_dtype(self):
        arr = np.arange(12, dtype=np.int32).reshape(3, 4)
        out = sample_raster(arr, Box(0, 0, 4, 3), 8, 6)
        assert out.dtype == np.int32 and out.shape == (6, 8)


class TestSampleRaster:
    def test_matches_resize_of_crop_oracle(self):
        # boxes hang off every side and may exceed the raster; the sampler
        # gathers only the sampled pixels, the oracles crop the whole box
        rng = np.random.default_rng(131)
        for trial in range(400):
            h, w = (int(v) for v in rng.integers(1, 41, size=2))
            if trial % 2:
                raster = rng.random((h, w)) < 0.5
            else:
                raster = rng.integers(0, 1000, size=(h, w)).astype(np.int32)
            x0 = int(rng.integers(-2 * w, 2 * w))
            y0 = int(rng.integers(-2 * h, 2 * h))
            box = Box(x0, y0, x0 + int(rng.integers(1, 3 * w + 1)),
                      y0 + int(rng.integers(1, 3 * h + 1)))
            ow, oh = (int(v) for v in rng.integers(1, 49, size=2))
            got = sample_raster(raster, box, ow, oh)
            want = resize_nearest_raster_oracle(crop_raster_oracle(raster, box), ow, oh)
            assert got.dtype == raster.dtype
            assert np.array_equal(got, want)


def test_rasterize_box_clips():
    out = rasterize_box(Box(-2, 1, 3, 10), 4, 4).pixels
    want = np.zeros((4, 4), dtype=bool)
    want[1:4, 0:3] = True
    assert np.array_equal(out, want)


def test_crop_raster_pad_value_dtype():
    arr = np.arange(9, dtype=np.int64).reshape(3, 3)
    out = sample_raster(arr, Box(2, 2, 5, 5), 3, 3)
    assert out[0, 0] == 8 and out[2, 2] == 0 and out.dtype == np.int64
