"""Shared shape and corpus builders for the test suite."""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.special import expit

from dtmask import (
    BinaryMask,
    BitPlaneStack,
    Box,
    QuantizationScheme,
    SoftDecodeParams,
    box_iou,
    mask_iou,
)
from dtmask.codec import _disk_element, _painted_radius


def disk_raster(h, w, cy, cx, r):
    yy, xx = np.indices((h, w))
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def disk_mask(h, w, cy, cx, r) -> BinaryMask:
    return BinaryMask(disk_raster(h, w, cy, cx, r))


def ring_mask(h, w, cy, cx, r_out, r_in) -> BinaryMask:
    return BinaryMask(disk_raster(h, w, cy, cx, r_out) & ~disk_raster(h, w, cy, cx, r_in))


def rect_mask(h, w, y0, x0, y1, x1) -> BinaryMask:
    m = np.zeros((h, w), dtype=bool)
    m[y0:y1, x0:x1] = True
    return BinaryMask(m)


def l_mask(h, w, y0, x0, arm_len, thickness) -> BinaryMask:
    """L shape: vertical arm down from (y0, x0), horizontal arm at its foot."""
    m = np.zeros((h, w), dtype=bool)
    m[y0 : y0 + arm_len, x0 : x0 + thickness] = True
    m[y0 + arm_len - thickness : y0 + arm_len, x0 : x0 + arm_len] = True
    return BinaryMask(m)


def random_mask(rng, min_size=4, max_size=64) -> BinaryMask:
    """A mask of varied structure: noise, blob unions, solids, sparse."""
    h = int(rng.integers(min_size, max_size + 1))
    w = int(rng.integers(min_size, max_size + 1))
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return BinaryMask(rng.random((h, w)) < float(rng.choice([0.2, 0.5, 0.8])))
    if kind == 1:
        m = np.zeros((h, w), dtype=bool)
        for _ in range(int(rng.integers(1, 5))):
            cy, cx = int(rng.integers(0, h)), int(rng.integers(0, w))
            r = int(rng.integers(2, max(3, min(h, w) // 2)))
            m |= disk_raster(h, w, cy, cx, r)
        return BinaryMask(m)
    if kind == 2:
        return BinaryMask(np.ones((h, w), dtype=bool))
    if kind == 3:
        return BinaryMask(np.zeros((h, w), dtype=bool))
    if kind == 4:
        m = np.zeros((h, w), dtype=bool)
        m[1 : max(2, h - 1), 1 : max(2, w - 1)] = True
        m[h // 3 : max(h // 3 + 1, 2 * h // 3), w // 3 : max(w // 3 + 1, 2 * w // 3)] = False
        return BinaryMask(m)
    return BinaryMask(rng.random((h, w)) < 0.95)


def random_scheme(rng, max_bins=6) -> QuantizationScheme:
    """A random strictly increasing radius table starting at 0."""
    bins = int(rng.integers(2, max_bins + 1))
    steps = rng.integers(1, 4, size=bins - 1)
    radii = [0]
    for s in steps:
        radii.append(radii[-1] + int(s))
    cap = radii[-1] + int(rng.integers(0, 4))
    return QuantizationScheme(bins, cap, tuple(radii))


def random_one_hot(rng, scheme, min_size=4, max_size=40) -> BitPlaneStack:
    h = int(rng.integers(min_size, max_size + 1))
    w = int(rng.integers(min_size, max_size + 1))
    idx = rng.integers(0, scheme.bins, size=(h, w))
    planes = idx[None, :, :] == np.arange(scheme.bins)[:, None, None]
    return BitPlaneStack(planes, scheme)


def tight_box(mask: BinaryMask) -> Box:
    """Bounding box of the object pixels (half-open)."""
    ys, xs = np.nonzero(mask.pixels)
    return Box(int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


def soft_decode_oracle(stack, params=None, mode="conservative") -> BinaryMask:
    """Reference soft decode: direct 2-D correlation with each disk kernel."""
    if params is None:
        params = SoftDecodeParams()
    weights = params.weights_for(stack.scheme.bins)
    total = np.full((stack.height, stack.width), params.bias, dtype=np.float64)
    for plane, bin_radius, w in zip(stack.planes, stack.scheme.radii, weights):
        painted = _painted_radius(bin_radius, mode)
        if painted is None:
            continue
        kernel = _disk_element(painted).astype(np.float64)
        total += w * ndimage.correlate(plane, kernel, mode="constant", cval=0.0)
    return BinaryMask(expit(total) >= params.threshold)


def decode_to_canvas_oracle(
    stack, spec, canvas_width, canvas_height, mode="conservative"
) -> BinaryMask:
    """Reference canvas decode: stamp a clipped disk at every mapped centre."""
    num, den = spec.min_scale_fraction()
    box = spec.box
    map_x = [box.x0 + ((2 * j + 1) * box.width) // (2 * spec.norm_width)
             for j in range(spec.norm_width)]
    map_y = [box.y0 + ((2 * i + 1) * box.height) // (2 * spec.norm_height)
             for i in range(spec.norm_height)]
    canvas = np.zeros((canvas_height, canvas_width), dtype=bool)
    for plane, bin_radius in zip(stack.planes, stack.scheme.radii):
        if bin_radius == 0:
            continue
        rho = (2 * bin_radius * den + num) // (2 * num)
        painted = rho - 1 if mode == "conservative" else rho
        if painted < 0:
            continue
        element = _disk_element(painted)
        ys, xs = np.nonzero(plane)
        centers = sorted({(map_y[int(i)], map_x[int(j)]) for i, j in zip(ys, xs)})
        for cy, cx in centers:
            y0, y1 = max(cy - painted, 0), min(cy + painted + 1, canvas_height)
            x0, x1 = max(cx - painted, 0), min(cx + painted + 1, canvas_width)
            if y0 >= y1 or x0 >= x1:
                continue
            canvas[y0:y1, x0:x1] |= element[
                y0 - cy + painted : y1 - cy + painted,
                x0 - cx + painted : x1 - cx + painted,
            ]
    return BinaryMask(canvas)


def _score_order_oracle(proposals):
    return sorted(range(len(proposals)), key=lambda i: (-proposals[i].score, i))


def canvas_mask_oracle(proposal, width, height) -> BinaryMask:
    """Reference paste: scatter each set mask pixel to its canvas position."""
    if proposal.mask_anchor == "canvas":
        return proposal.mask
    ys, xs = np.nonzero(proposal.mask.pixels)
    ys, xs = ys + proposal.box.y0, xs + proposal.box.x0
    on = (ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)
    out = np.zeros((height, width), dtype=bool)
    out[ys[on], xs[on]] = True
    return BinaryMask(out)


def iou_matrix_oracle(proposals, gts) -> np.ndarray:
    """Reference proposal x GT IoU: `mask_iou` of full-canvas masks per cell."""
    h, w = gts[0].pixels.shape
    out = np.zeros((len(proposals), len(gts)))
    for i, p in enumerate(proposals):
        pm = canvas_mask_oracle(p, w, h)
        for j, g in enumerate(gts):
            out[i, j] = mask_iou(pm, g)
    return out


def nms_oracle(proposals, iou_thresh, use_masks=False, canvas_size=None):
    """Reference NMS: each proposal is checked against every kept one."""
    if use_masks:
        w, h = canvas_size
        masks = [canvas_mask_oracle(p, w, h) for p in proposals]
        overlap = lambda i, j: mask_iou(masks[i], masks[j])
    else:
        overlap = lambda i, j: box_iou(proposals[i].box, proposals[j].box)
    keep = []
    for i in _score_order_oracle(proposals):
        if all(overlap(i, k) <= iou_thresh for k in keep):
            keep.append(i)
    return [proposals[i] for i in keep]
