"""Plain-text file formats for masks, maps, stacks, proposals, and CSV.

All writers emit a fixed byte-exact layout with LF newlines; all
readers tolerate arbitrary whitespace and '#' comments (to end of
line).  Readers never repair bad data: every violation raises
FormatError, except the documented lax mode of `read_bps` for
deliberately corrupted stacks.

Formats:
  P1   plain bitmap, "P1", "<w> <h>", rows of 0/1 digits (1 = object)
  P2   plain graymap, "P2", "<w> <h>", "<maxval>", rows of labels
  DTM  "DTM <w> <h> <R>", rows of integers in [0, R]
  BPS  "BPS <w> <h> <K> <r_1> ... <r_K>", K row blocks of 0/1 digits
  proposals  lines "<id> <x0> <y0> <x1> <y1> <score> [maskfile]"
"""

from __future__ import annotations

import os

import numpy as np

from .grid import MAX_LABEL, BinaryMask, Box, BoxProposal, LabelMap
from .edt import TruncatedDistanceMap
from .codec import BitPlaneStack, QuantizationScheme


class FormatError(ValueError):
    """A file does not conform to its declared format."""


def _strip_comments(text: str) -> list[str]:
    tokens = []
    for line in text.splitlines():
        cut = line.find("#")
        if cut != -1:
            line = line[:cut]
        tokens.extend(line.split())
    return tokens


def _read_tokens(path) -> list[str]:
    with open(path, "r", encoding="ascii") as fh:
        return _strip_comments(fh.read())


def _int_token(tokens: list[str], pos: int, what: str) -> int:
    if pos >= len(tokens):
        raise FormatError(f"unexpected end of file while reading {what}")
    try:
        return int(tokens[pos])
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {tokens[pos]!r}") from None


def _header_dims(tokens: list[str], pos: int) -> tuple[int, int]:
    w = _int_token(tokens, pos, "width")
    h = _int_token(tokens, pos + 1, "height")
    if w < 1 or h < 1:
        raise FormatError(f"dimensions must be positive, got {w}x{h}")
    return w, h


def _bit_raster(tokens: list[str], count: int, what: str) -> np.ndarray:
    digits = "".join(tokens)
    if len(digits) != count:
        raise FormatError(f"expected {count} {what} digits, found {len(digits)}")
    arr = np.frombuffer(digits.encode("ascii"), dtype=np.uint8) - ord("0")
    if (arr > 1).any():
        bad = digits[int(np.nonzero(arr > 1)[0][0])]
        raise FormatError(f"non-binary digit {bad!r} in {what}")
    return arr.astype(bool)


def _open_out(path):
    return open(path, "w", encoding="ascii", newline="\n")


def _comment_lines(comments) -> list[str]:
    return [f"# {c}" for c in comments]


def read_mask(path) -> BinaryMask:
    tokens = _read_tokens(path)
    if not tokens or tokens[0] != "P1":
        raise FormatError(f"expected magic 'P1', got {tokens[0] if tokens else 'nothing'!r}")
    w, h = _header_dims(tokens, 1)
    bits = _bit_raster(tokens[3:], w * h, "pixel")
    return BinaryMask(bits.reshape(h, w))


def write_mask(path, mask: BinaryMask, comments=()) -> None:
    rows = [" ".join("1" if v else "0" for v in row) for row in mask.pixels]
    lines = ["P1", *_comment_lines(comments), f"{mask.width} {mask.height}", *rows]
    with _open_out(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_label_map(path) -> LabelMap:
    tokens = _read_tokens(path)
    if not tokens or tokens[0] != "P2":
        raise FormatError(f"expected magic 'P2', got {tokens[0] if tokens else 'nothing'!r}")
    w, h = _header_dims(tokens, 1)
    maxval = _int_token(tokens, 3, "maxval")
    if maxval < 0:
        raise FormatError(f"maxval must be >= 0, got {maxval}")
    body = tokens[4:]
    if len(body) != w * h:
        raise FormatError(f"expected {w * h} label values, found {len(body)}")
    try:
        labels = np.fromiter(map(int, body), np.int64, len(body))
    except (ValueError, OverflowError):
        # Rescan to name the bad token; a value beyond int64 stays a Python
        # int and fails a range check below.
        labels = np.array(
            [_int_token(body, k, "label value") for k in range(len(body))], dtype=object
        )
    if (labels < 0).any():
        raise FormatError("negative label value")
    for limit, name in ((maxval, "declared maxval"), (MAX_LABEL, "the int32 limit")):
        if (labels > limit).any():
            bad = int(labels[labels > limit][0])
            raise FormatError(f"label value {bad} exceeds {name} {limit}")
    return LabelMap(labels.reshape(h, w))


def write_label_map(path, label_map: LabelMap, comments=()) -> None:
    maxval = int(label_map.labels.max())
    rows = [" ".join(str(int(v)) for v in row) for row in label_map.labels]
    lines = [
        "P2",
        *_comment_lines(comments),
        f"{label_map.width} {label_map.height}",
        str(maxval),
        *rows,
    ]
    with _open_out(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_dtm(path) -> TruncatedDistanceMap:
    tokens = _read_tokens(path)
    if not tokens or tokens[0] != "DTM":
        raise FormatError(f"expected magic 'DTM', got {tokens[0] if tokens else 'nothing'!r}")
    w, h = _header_dims(tokens, 1)
    cap = _int_token(tokens, 3, "radius cap")
    if cap < 1:
        raise FormatError(f"radius cap must be >= 1, got {cap}")
    body = tokens[4:]
    if len(body) != w * h:
        raise FormatError(f"expected {w * h} distance values, found {len(body)}")
    values = np.empty(w * h, dtype=np.int64)
    for k in range(len(body)):
        values[k] = _int_token(body, k, "distance value")
    if (values < 0).any() or (values > cap).any():
        bad = int(values[(values < 0) | (values > cap)][0])
        raise FormatError(f"distance value {bad} outside [0, {cap}]")
    return TruncatedDistanceMap(values.reshape(h, w), cap)


def write_dtm(path, dmap: TruncatedDistanceMap, comments=()) -> None:
    rows = [" ".join(str(int(v)) for v in row) for row in dmap.values]
    lines = [
        f"DTM {dmap.width} {dmap.height} {dmap.radius_cap}",
        *_comment_lines(comments),
        *rows,
    ]
    with _open_out(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_bps(path, lax: bool = False) -> BitPlaneStack:
    """Read a bit-plane stack; `lax` skips the one-hot check.

    The header does not carry the radius cap, so the scheme is rebuilt
    with the smallest cap consistent with the radii (cap = r_K).
    """
    tokens = _read_tokens(path)
    if not tokens or tokens[0] != "BPS":
        raise FormatError(f"expected magic 'BPS', got {tokens[0] if tokens else 'nothing'!r}")
    w, h = _header_dims(tokens, 1)
    bins = _int_token(tokens, 3, "plane count")
    if bins < 2:
        raise FormatError(f"plane count must be >= 2, got {bins}")
    radii = tuple(_int_token(tokens, 4 + n, f"bin radius {n + 1}") for n in range(bins))
    try:
        scheme = QuantizationScheme(bins, max(radii[-1], 1), radii)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    bits = _bit_raster(tokens[4 + bins :], bins * w * h, "plane")
    stack = BitPlaneStack(bits.reshape(bins, h, w), scheme)
    if not lax and not stack.is_one_hot():
        hot = stack.planes.sum(axis=0, dtype=np.int32)
        ys, xs = np.nonzero(hot != 1)
        raise FormatError(
            f"one-hot violation at pixel ({int(xs[0])}, {int(ys[0])}): "
            f"{int(hot[ys[0], xs[0]])} bits set"
        )
    return stack


def write_bps(path, stack: BitPlaneStack, comments=()) -> None:
    header = (
        f"BPS {stack.width} {stack.height} {stack.scheme.bins} "
        + " ".join(str(r) for r in stack.scheme.radii)
    )
    rows = []
    for plane in stack.planes:
        rows.extend(" ".join("1" if v else "0" for v in row) for row in plane)
    with _open_out(path) as fh:
        fh.write("\n".join([header, *_comment_lines(comments), *rows]) + "\n")


def read_proposals(path) -> list[BoxProposal]:
    """Read a proposal list; mask paths resolve relative to the file."""
    base = os.path.dirname(os.path.abspath(path))
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (6, 7):
                raise FormatError(
                    f"{path}: line {lineno}: expected 6 or 7 fields, got {len(fields)}"
                )
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
                    raise FormatError(
                        f"{path}: line {lineno}: mask file not found: {fields[6]}"
                    )
                mask = read_mask(mask_path)
                if (mask.height, mask.width) == (box.height, box.width):
                    anchor = "box"
            try:
                out.append(BoxProposal(box, score, mask, anchor))
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from None
    return out


def write_proposals(path, proposals, mask_dir=None, comments=()) -> None:
    """Write proposals; masks go to sibling PBM files when present.

    `mask_dir` defaults to "<path without extension>_masks", created on
    demand; mask references in the list file are relative to it.
    """
    path = os.fspath(path)
    base = os.path.dirname(os.path.abspath(path))
    if mask_dir is None:
        mask_dir = os.path.splitext(path)[0] + "_masks"
    lines = _comment_lines(comments)
    for i, p in enumerate(proposals):
        b = p.box
        entry = f"{i} {b.x0} {b.y0} {b.x1} {b.y1} {p.score!r}"
        if p.mask is not None:
            os.makedirs(mask_dir, exist_ok=True)
            mask_file = os.path.join(mask_dir, f"mask_{i:04d}.pbm")
            write_mask(mask_file, p.mask)
            entry += " " + os.path.relpath(mask_file, base).replace(os.sep, "/")
        lines.append(entry)
    with _open_out(path) as fh:
        if lines:
            fh.write("\n".join(lines) + "\n")


def write_csv(path, header: list[str], rows, comments=()) -> None:
    """Minimal deterministic CSV: '#' comments, header line, data rows."""
    lines = _comment_lines(comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    with _open_out(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return repr(v)
    return str(v)
