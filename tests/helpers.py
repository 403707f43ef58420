"""Shared shape and corpus builders for the test suite."""

from __future__ import annotations

import os
import re

import numpy as np
from scipy import ndimage
from scipy.special import expit

from dtmask import (
    BinaryMask,
    BitPlaneStack,
    Box,
    BoxProposal,
    FormatError,
    LabelMap,
    QuantizationScheme,
    TruncatedDistanceMap,
    box_iou,
    encode,
    mask_iou,
    truncated_edt,
)
from dtmask.codec import (
    DEFAULT_SOFT_BIAS,
    DEFAULT_SOFT_THRESHOLD,
    DEFAULT_SOFT_WEIGHT,
    _painted_radius,
)
from dtmask.grid import MAX_LABEL


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


def rasterize_box(box, width, height) -> BinaryMask:
    """Mask of the box interior on a width x height canvas, clipped."""
    m = np.zeros((height, width), dtype=bool)
    m[max(box.y0, 0) : max(box.y1, 0), max(box.x0, 0) : max(box.x1, 0)] = True
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
    return QuantizationScheme(tuple(radii))


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


def soft_decode_oracle(
    stack,
    mode="conservative",
    *,
    weight=DEFAULT_SOFT_WEIGHT,
    bias=DEFAULT_SOFT_BIAS,
    threshold=DEFAULT_SOFT_THRESHOLD,
) -> BinaryMask:
    """Reference soft decode: direct 2-D correlation with each disk kernel."""
    weights = np.broadcast_to(np.asarray(weight, dtype=np.float64), stack.scheme.bins)
    total = np.full((stack.height, stack.width), bias, dtype=np.float64)
    for plane, bin_radius, w in zip(stack.planes, stack.scheme.radii, weights):
        painted = _painted_radius(bin_radius, mode)
        if painted is None:
            continue
        kernel = _disk_element(painted).astype(np.float64)
        # A bool input would make `correlate` return bool responses.
        response = ndimage.correlate(
            plane.astype(np.float64), kernel, mode="constant", cval=0.0
        )
        total += w * response
    return BinaryMask(expit(total) >= threshold)


def disk_sum_oracle(plane, radius) -> np.ndarray:
    """Reference disk sum, one set pixel at a time.

    Every nonzero pixel q adds its value to each pixel p of the raster
    with |p - q|^2 <= radius^2.  Counts come back as int64, float
    scores as float64.  Meant for sparse planes.
    """
    h, w = plane.shape
    out = np.zeros((h, w), dtype=np.float64 if plane.dtype.kind == "f" else np.int64)
    ys, xs = np.arange(h), np.arange(w)
    for qy, qx in zip(*np.nonzero(plane)):
        y0, y1 = max(qy - radius, 0), min(qy + radius + 1, h)
        x0, x1 = max(qx - radius, 0), min(qx + radius + 1, w)
        d2 = (ys[y0:y1, None] - qy) ** 2 + (xs[None, x0:x1] - qx) ** 2
        out[y0:y1, x0:x1] += plane[qy, qx] * (d2 <= radius * radius)
    return out


def _disk_element(radius: int) -> np.ndarray:
    """Boolean disk structuring element: center distance <= radius."""
    d = np.arange(-radius, radius + 1, dtype=np.int64)
    return (d[:, None] ** 2 + d[None, :] ** 2) <= radius * radius


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


def crop_raster_oracle(raster, box) -> np.ndarray:
    """Reference crop: the whole box, pixels off the raster read 0."""
    h, w = raster.shape
    out = np.zeros((box.height, box.width), dtype=raster.dtype)
    x0, x1 = max(box.x0, 0), min(box.x1, w)
    y0, y1 = max(box.y0, 0), min(box.y1, h)
    if x0 < x1 and y0 < y1:
        out[y0 - box.y0 : y1 - box.y0, x0 - box.x0 : x1 - box.x0] = raster[y0:y1, x0:x1]
    return out


def resize_nearest_raster_oracle(raster, out_width, out_height) -> np.ndarray:
    """Reference nearest resize: cell i reads pixel floor((i + 0.5) * n_in / n_out)."""
    h, w = raster.shape
    sy = ((2 * np.arange(out_height, dtype=np.int64) + 1) * h) // (2 * out_height)
    sx = ((2 * np.arange(out_width, dtype=np.int64) + 1) * w) // (2 * out_width)
    return raster[np.ix_(sy, sx)]


def encode_window_oracle(full_mask, spec, scheme) -> BitPlaneStack:
    """Reference window encode: one full-grid transform per window.

    The transform is capped at pre_cap, the smallest cap whose scaled
    value still reaches the largest bin radius, so downscaling loses
    nothing.  The window is cropped whole, then resized.
    """
    num, den = spec.min_scale_fraction()
    cap = scheme.radii[-1]
    pre_cap = max(cap, (cap * den + num - 1) // num)
    full = truncated_edt(full_mask, pre_cap).values
    window = crop_raster_oracle(full, spec.box)
    resized = resize_nearest_raster_oracle(window, spec.norm_width, spec.norm_height)
    values = np.minimum((resized.astype(np.int64) * num + den - 1) // den, cap)
    return encode(TruncatedDistanceMap(values, cap), scheme)


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


# Reference plain-text readers and writers: one Python str per token on
# read, one join per row on write.  `dtmask.io` must match their bytes,
# and their results on every file they accept.

# A '#' comment runs up to, not including, the next str.splitlines break.
_COMMENT_ORACLE = re.compile(rb"#[^\n\r\x0b\x0c\x1c-\x1e]*")


def _tokens_oracle(path) -> list[str]:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    tokens = []
    for line in text.splitlines():
        cut = line.find("#")
        if cut != -1:
            line = line[:cut]
        tokens.extend(line.split())
    return tokens


def _int_token_oracle(tokens, pos, what, body=False) -> int:
    """Token `pos` as an int: ASCII decimal digits in a header, any int()
    spelling in a body."""
    if pos >= len(tokens):
        raise FormatError(f"unexpected end of file while reading {what}")
    token = tokens[pos]
    if not body:
        if re.fullmatch("[0-9]+", token) is None:
            raise FormatError(f"{what} must be a decimal integer of ASCII digits, got {token!r}")
        return int(token.lstrip("0") or "0")
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {token!r}") from None


def _header_oracle(path, magic) -> tuple[list[str], int, int]:
    tokens = _tokens_oracle(path)
    if not tokens or tokens[0] != magic:
        raise FormatError(f"expected magic {magic!r}, got {tokens[0] if tokens else 'nothing'!r}")
    w = _int_token_oracle(tokens, 1, "width")
    h = _int_token_oracle(tokens, 2, "height")
    if w < 1 or h < 1:
        raise FormatError(f"dimensions must be positive, got {w}x{h}")
    return tokens, w, h


def _bits_oracle(tokens, count, what) -> np.ndarray:
    digits = "".join(tokens)
    if len(digits) != count:
        raise FormatError(f"expected {count} {what} digits, found {len(digits)}")
    arr = np.frombuffer(digits.encode("ascii"), dtype=np.uint8) - ord("0")
    if (arr > 1).any():
        bad = digits[int(np.nonzero(arr > 1)[0][0])]
        raise FormatError(f"non-binary digit {bad!r} in {what}")
    return arr.astype(bool)


def _write_lines_oracle(path, lines) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if lines:
            fh.write("\n".join(lines) + "\n")


def read_mask_oracle(path) -> BinaryMask:
    tokens, w, h = _header_oracle(path, "P1")
    return BinaryMask(_bits_oracle(tokens[3:], w * h, "pixel").reshape(h, w))


def write_mask_oracle(path, mask, comments=()) -> None:
    rows = [" ".join("1" if v else "0" for v in row) for row in mask.pixels]
    head = ["P1", *(f"# {c}" for c in comments), f"{mask.width} {mask.height}"]
    _write_lines_oracle(path, head + rows)


def read_label_map_oracle(path) -> LabelMap:
    tokens, w, h = _header_oracle(path, "P2")
    maxval = _int_token_oracle(tokens, 3, "maxval")
    if maxval < 0:
        raise FormatError(f"maxval must be >= 0, got {maxval}")
    body = tokens[4:]
    if len(body) != w * h:
        raise FormatError(f"expected {w * h} label values, found {len(body)}")
    labels = np.array(
        [_int_token_oracle(body, k, "label value", body=True) for k in range(len(body))], dtype=object
    )
    if (labels < 0).any():
        raise FormatError("negative label value")
    for limit, name in ((maxval, "declared maxval"), (MAX_LABEL, "the int32 limit")):
        if (labels > limit).any():
            bad = int(labels[labels > limit][0])
            raise FormatError(f"label value {bad} exceeds {name} {limit}")
    return LabelMap(labels.astype(np.int64).reshape(h, w))


def write_label_map_oracle(path, label_map, comments=()) -> None:
    rows = [" ".join(str(int(v)) for v in row) for row in label_map.labels]
    head = [
        "P2",
        *(f"# {c}" for c in comments),
        f"{label_map.width} {label_map.height}",
        str(int(label_map.labels.max())),
    ]
    _write_lines_oracle(path, head + rows)


def read_dtm_oracle(path) -> TruncatedDistanceMap:
    tokens, w, h = _header_oracle(path, "DTM")
    cap = _int_token_oracle(tokens, 3, "radius cap")
    if cap < 1:
        raise FormatError(f"radius cap must be >= 1, got {cap}")
    body = tokens[4:]
    if len(body) != w * h:
        raise FormatError(f"expected {w * h} distance values, found {len(body)}")
    values = np.empty(w * h, dtype=np.int64)
    for k in range(len(body)):
        values[k] = _int_token_oracle(body, k, "distance value", body=True)
    if (values < 0).any() or (values > cap).any():
        bad = int(values[(values < 0) | (values > cap)][0])
        raise FormatError(f"distance value {bad} outside [0, {cap}]")
    return TruncatedDistanceMap(values.reshape(h, w), cap)


def write_dtm_oracle(path, dmap, comments=()) -> None:
    rows = [" ".join(str(int(v)) for v in row) for row in dmap.values]
    head = [f"DTM {dmap.width} {dmap.height} {dmap.radius_cap}", *(f"# {c}" for c in comments)]
    _write_lines_oracle(path, head + rows)


def read_bps_oracle(path, lax=False) -> BitPlaneStack:
    tokens, w, h = _header_oracle(path, "BPS")
    bins = _int_token_oracle(tokens, 3, "plane count")
    if bins < 2:
        raise FormatError(f"plane count must be >= 2, got {bins}")
    radii = tuple(_int_token_oracle(tokens, 4 + n, f"bin radius {n + 1}") for n in range(bins))
    try:
        scheme = QuantizationScheme(radii)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    bits = _bits_oracle(tokens[4 + bins :], bins * w * h, "plane")
    stack = BitPlaneStack(bits.reshape(bins, h, w), scheme)
    if not lax and not stack.is_one_hot():
        raise FormatError("one-hot violation")
    return stack


def write_bps_oracle(path, stack, comments=()) -> None:
    header = (
        f"BPS {stack.width} {stack.height} {stack.scheme.bins} "
        + " ".join(str(r) for r in stack.scheme.radii)
    )
    rows = []
    for plane in stack.planes:
        rows.extend(" ".join("1" if v else "0" for v in row) for row in plane)
    _write_lines_oracle(path, [header, *(f"# {c}" for c in comments), *rows])


def read_proposals_oracle(path) -> list[BoxProposal]:
    base = os.path.dirname(os.path.abspath(path))
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (6, 7):
                raise FormatError(f"{path}: line {lineno}: expected 6 or 7 fields")
            try:
                int(fields[0])
                box = Box(*(int(v) for v in fields[1:5]))
                score = float(fields[5])
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
            mask = None
            anchor = "canvas"
            if len(fields) == 7:
                mask_path = os.path.join(base, fields[6])
                if not os.path.exists(mask_path):
                    raise FormatError(f"{path}: line {lineno}: mask file not found")
                mask = read_mask_oracle(mask_path)
                if (mask.height, mask.width) == (box.height, box.width):
                    anchor = "box"
            try:
                proposal = BoxProposal(box, score, mask)
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
            assert proposal.mask_anchor == anchor
            out.append(proposal)
    return out


def write_proposals_oracle(path, proposals, mask_dir=None, comments=()) -> None:
    path = os.fspath(path)
    base = os.path.dirname(os.path.abspath(path))
    if mask_dir is None:
        mask_dir = os.path.splitext(path)[0] + "_masks"
    lines = [f"# {c}" for c in comments]
    for i, p in enumerate(proposals):
        b = p.box
        entry = f"{i} {b.x0} {b.y0} {b.x1} {b.y1} {p.score!r}"
        if p.mask is not None:
            os.makedirs(mask_dir, exist_ok=True)
            mask_file = os.path.join(mask_dir, f"mask_{i:04d}.pbm")
            write_mask_oracle(mask_file, p.mask)
            entry += " " + os.path.relpath(mask_file, base).replace(os.sep, "/")
        lines.append(entry)
    _write_lines_oracle(path, lines)


def write_csv_oracle(path, header, rows, comments=()) -> None:
    def cell(v) -> str:
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    _write_lines_oracle(path, lines)
