"""Plain-text file formats for masks, maps, stacks, proposals, and CSV.

All writers emit a fixed byte-exact layout with LF newlines.  Readers
take ASCII only and split tokens as str.split does, so \x0b, \x0c and
\x1c-\x1f are whitespace.  A '#' comment in a raster file ends at the
line breaks of str.splitlines: \n, \r, \x0b, \x0c and \x1c-\x1e.  A
proposal list is read line by line, and its lines end only at \n, \r
and \r\n.  Readers never repair bad data: every violation raises
FormatError, except the documented lax mode of `read_bps` for
deliberately corrupted stacks.

Every raster reader reads its file once as bytes.  Each header token
is found past the whitespace and '#' comments ahead of it, one step per
comment, so a comment may touch a token, and the comment lines after
the header are skipped the same way.  Header integers are ASCII decimal digits, [0-9]+,
read exactly at any length.  Comments are stripped from the body only
when a '#' occurs in it, each found with bytes.find and ended with a
one-class regex search, then the kept slices joined; the writers never
put one there.  A bit body (PBM, BPS) is one bytes.translate of the
whole file that swaps '0'/'1' with 0x00/0x01 and deletes whitespace,
read as a read-only bool view of that output past the header: the data
is copied once, and the value types keep the view.  An integer body
(PGM, DTM) that holds only ASCII digits and whitespace is decoded with
numpy: a body of one-digit tokens straight from its digit bytes, any
other by Horner over each digit run, building int64 index arrays only
then.  A sign, '_', a letter or a token of 19 or more digits (which may
not fit int64) takes the token-by-token int() path, so the grammar, the
values and the error texts are the same.

Formats:
  P1   plain bitmap, "P1", "<w> <h>", rows of 0/1 digits (1 = object)
  P2   plain graymap, "P2", "<w> <h>", "<maxval>", rows of labels
  DTM  "DTM <w> <h> <R>", rows of integers in [0, R]
  BPS  "BPS <w> <h> <K> <r_1> ... <r_K>", K row blocks of 0/1 digits
  proposals  lines "<id> <x0> <y0> <x1> <y1> <score> [maskfile]"
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

from .grid import MAX_LABEL, BinaryMask, Box, BoxProposal, LabelMap, _Adopted
from .edt import TruncatedDistanceMap
from .codec import BitPlaneStack, QuantizationScheme


class FormatError(ValueError):
    """A file does not conform to its declared format."""


# Python's str.split whitespace and str.splitlines breaks, in ASCII.
_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_LINE_BREAK = re.compile(rb"[\n\r\x0b\x0c\x1c-\x1e]")
_TOKEN = re.compile(rb"[^ \t\n\r\x0b\x0c\x1c-\x1f]+")
_SPACE_RUN = re.compile(rb"[ \t\n\r\x0b\x0c\x1c-\x1f]*")
# A header token ends at whitespace or at a '#'.
_HEADER_TOKEN = re.compile(rb"[^ \t\n\r\x0b\x0c\x1c-\x1f#]*")
# '0' and '1' swapped with 0x00 and 0x01; every other byte kept.
_BITS = bytes.maketrans(b"01\x00\x01", b"\x00\x0101")


def _read_ascii(path) -> bytes:
    """The bytes of an ASCII file; any other byte is a FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        k = int(np.argmax(np.frombuffer(data, dtype=np.uint8) > 0x7F))
        where = f"line {len(data[: k + 1].splitlines())}, offset {k} (file {path})"
        raise FormatError(f"non-ASCII byte 0x{data[k]:02x} at {where}")
    return data


def _strip_comments(data: bytes) -> bytes:
    """`data` without its '#' comments; a comment's line break stays, so
    it still separates tokens."""
    k = data.find(b"#")
    if k < 0:
        return data
    view = memoryview(data)
    kept = []
    start = 0
    while k >= 0:
        kept.append(view[start:k])
        end = _LINE_BREAK.search(data, k)
        start = len(data) if end is None else end.start()
        k = data.find(b"#", start)
    kept.append(view[start:])
    return b"".join(kept)


class _RasterFile:
    """A raster file read once as bytes: magic, width, height, more header
    integers one token at a time, then the body after the comment lines
    that follow the header.  Errors name the file and the place of a body
    token in `shape`."""

    def __init__(self, path, magic: str):
        self.path = os.fspath(path)
        self.data = _read_ascii(path)
        self.pos = 0
        token = self._next_token()
        if token != magic.encode():
            got = token.decode() if token else "nothing"
            raise self.error(f"expected magic {magic!r}, got {got!r}")
        self.width = self.read_int("width")
        self.height = self.read_int("height")
        if self.width < 1 or self.height < 1:
            raise self.error(f"dimensions must be positive, got {self.width}x{self.height}")

    def error(self, message: str, index=None) -> FormatError:
        coords = () if index is None else np.unravel_index(index, self.shape)
        names = ("plane", "row", "column")[3 - len(coords) :]
        where = "".join(f", {n} {c}" for n, c in zip(names, coords))
        return FormatError(f"{message} (file {self.path}{where})")

    def reject(self, values: np.ndarray, bad: np.ndarray, message: str) -> None:
        """Raise `message`, with the value in place of "{}", where `bad` first holds."""
        if bad.any():
            k = int(np.argmax(bad))
            raise self.error(message.format(values[k]), k)

    def _parse(self, token: bytes, what: str, index: int) -> int:
        try:
            return int(token)
        except ValueError:
            raise self.error(f"{what} must be an integer, got {token.decode()!r}", index) from None

    def _skip(self) -> int:
        """The offset of the next byte, from `pos` on, that is neither
        whitespace nor part of a comment; the length at the end."""
        data, pos = self.data, self.pos
        # One step per comment: a regex repeat over comments would keep
        # backtracking state for every step.
        while True:
            pos = _SPACE_RUN.match(data, pos).end()
            if not data.startswith(b"#", pos):
                return pos
            end = _LINE_BREAK.search(data, pos)
            if end is None:
                return len(data)
            pos = end.start()

    def _next_token(self) -> bytes:
        """The next header token; b"" at the end of the file."""
        match = _HEADER_TOKEN.match(self.data, self._skip())
        self.pos = match.end()
        return match.group()

    def read_int(self, what: str) -> int:
        token = self._next_token()
        if not token:
            raise self.error(f"unexpected end of file while reading {what}")
        if not token.isdigit():
            raise self.error(f"{what} must be a decimal integer of ASCII digits, got {token.decode()!r}")
        # int() converts a bounded number of digits; leading zeros need not count.
        try:
            return int(token.lstrip(b"0") or b"0")
        except ValueError:
            raise self.error(f"{what} has too many digits to read ({len(token)})") from None

    def _body(self) -> tuple[bytes, int]:
        """The data and the offset in it where the body starts, past the
        comment lines after the header; a body holding a '#' is returned
        on its own, comments stripped."""
        start = self._skip()
        if self.data.find(b"#", start) < 0:
            return self.data, start
        return _strip_comments(self.data[start:]), 0

    def bits(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The body as a read-only bool array of 0/1 digits, whitespace
        ignored: a view of one translate of the data, past the header."""
        self.shape = shape
        data, start = self._body()
        flat = data.translate(_BITS, _SPACE)
        skip = len(data[:start].translate(None, _SPACE))
        if len(flat) - skip != math.prod(shape):
            raise self.error(f"expected {math.prod(shape)} {what} digits, found {len(flat) - skip}")
        arr = np.frombuffer(flat, dtype=np.uint8, offset=skip)
        if arr.max() > 1:
            k = int(np.argmax(arr > 1))
            # _BITS is its own inverse, so it gives back the file's byte.
            raise self.error(f"non-binary digit {chr(_BITS[arr[k]])!r} in {what}", k)
        return arr.view(bool).reshape(shape)

    def ints(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The body, flat: int64 from the digit decode, else Python ints."""
        self.shape = shape
        data, start = self._body()
        body = data[start:]
        digits = body.translate(None, _SPACE)
        if digits.isdigit():
            values = self._digit_ints(body, digits, what)
            if values is not None:
                return values
        tokens = _TOKEN.findall(body)
        self._check_count(len(tokens), what)
        return np.array([self._parse(t, what, k) for k, t in enumerate(tokens)], dtype=object)

    def _check_count(self, found: int, what: str) -> None:
        if found != math.prod(self.shape):
            raise self.error(f"expected {math.prod(self.shape)} {what}s, found {found}")

    def _digit_ints(self, body: bytes, digits: bytes, what: str) -> np.ndarray | None:
        """Decode a body of ASCII digits and whitespace, or return None if a
        token has 19 or more digits and may not fit int64."""
        codes = np.frombuffer(body, dtype=np.uint8)
        # Every _SPACE byte sorts below "0", so ">= 0" marks exactly the
        # digits; `edges` marks where each digit run starts and ends.
        edges = np.diff(codes >= ord("0"), prepend=False, append=False)
        tokens = np.count_nonzero(edges) // 2
        self._check_count(tokens, what)
        if len(digits) == tokens:
            return np.subtract(np.frombuffer(digits, dtype=np.uint8), ord("0"), dtype=np.int64)
        # Some token has two or more digits: Horner over the runs read
        # right-aligned, so a short run reads as zeros on its left.
        at = np.flatnonzero(edges)
        length = at[1::2] - at[::2]
        longest = int(length.max())
        if longest > 18:
            return None
        at = at[1::2] - longest
        values = np.zeros(tokens, dtype=np.int64)
        for k in range(longest, 0, -1):
            digit = codes.take(at, mode="clip") - ord("0")
            digit *= length >= k
            values *= 10
            values += digit
            at += 1
        return values


def _comment_lines(comments) -> list[str]:
    """Each comment as a '#' line.  A comment holding a non-ASCII character
    or a line break is a ValueError; writers call this before they create
    anything, so a bad comment leaves no file behind."""
    lines = [f"# {c}" for c in comments]
    for line in lines:
        bad = [ch for ch in line if not ch.isascii() or _LINE_BREAK.match(ch.encode())]
        if bad:
            raise ValueError(f"comment {line[2:]!r} holds {bad[0]!r}, which a comment line cannot carry")
    return lines


def _write(path, lines, raster=None) -> None:
    """Write `lines`, then each raster row as one line of single-spaced
    values: 0/1 digits for a bool raster, decimals otherwise."""
    bits = raster is not None and raster.dtype == bool
    if raster is not None and not bits:
        lines = [*lines, *(" ".join(map(str, row.tolist())) for row in raster)]
    text = "".join(f"{line}\n" for line in lines).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(text)
        if bits:
            # A bit and the space after it are one little-endian uint16,
            # "0 " or "1 ", built in one pass with no temporary.
            rows = raster.reshape(-1, raster.shape[-1]).view(np.uint8)
            pairs = np.empty(rows.shape, "<u2")
            np.add(rows, np.uint16(ord("0") | ord(" ") << 8), out=pairs)
            buf = pairs.view(np.uint8)
            buf[:, -1] = ord("\n")
            fh.write(buf)


def read_mask(path) -> BinaryMask:
    f = _RasterFile(path, "P1")
    return BinaryMask(_Adopted(f.bits((f.height, f.width), "pixel")))


def write_mask(path, mask: BinaryMask, comments=()) -> None:
    lines = ["P1", *_comment_lines(comments), f"{mask.width} {mask.height}"]
    _write(path, lines, mask.pixels)


def read_label_map(path) -> LabelMap:
    f = _RasterFile(path, "P2")
    maxval = f.read_int("maxval")
    if maxval < 0:
        raise f.error(f"maxval must be >= 0, got {maxval}")
    labels = f.ints((f.height, f.width), "label value")
    f.reject(labels, labels < 0, "negative label value")
    f.reject(labels, labels > maxval, f"label value {{}} exceeds declared maxval {maxval}")
    f.reject(labels, labels > MAX_LABEL, f"label value {{}} exceeds the int32 limit {MAX_LABEL}")
    return LabelMap(labels.reshape(f.shape))


def write_label_map(path, label_map: LabelMap, comments=()) -> None:
    size = f"{label_map.width} {label_map.height}"
    maxval = str(int(label_map.labels.max()))
    _write(path, ["P2", *_comment_lines(comments), size, maxval], label_map.labels)


def read_dtm(path) -> TruncatedDistanceMap:
    f = _RasterFile(path, "DTM")
    cap = f.read_int("radius cap")
    if cap < 1:
        raise f.error(f"radius cap must be >= 1, got {cap}")
    values = f.ints((f.height, f.width), "distance value")
    # Values are stored as int32: with a larger cap, 2**32 would wrap to 0.
    top = min(cap, MAX_LABEL)
    f.reject(values, (values < 0) | (values > top), f"distance value {{}} outside [0, {top}]")
    return TruncatedDistanceMap(values.reshape(f.shape), cap)


def write_dtm(path, dmap: TruncatedDistanceMap, comments=()) -> None:
    lines = [f"DTM {dmap.width} {dmap.height} {dmap.radius_cap}", *_comment_lines(comments)]
    _write(path, lines, dmap.values)


def read_bps(path, lax: bool = False) -> BitPlaneStack:
    """Read a bit-plane stack; `lax` skips the one-hot check.

    The header carries the whole radius table, so the stack reads back
    with the scheme it was written with.
    """
    f = _RasterFile(path, "BPS")
    bins = f.read_int("plane count")
    if bins < 2:
        raise f.error(f"plane count must be >= 2, got {bins}")
    # One token at a time: the count is unchecked until the file runs out.
    radii = tuple(f.read_int(f"bin radius {n + 1}") for n in range(bins))
    try:
        scheme = QuantizationScheme(radii)
    except ValueError as exc:
        raise f.error(str(exc)) from None
    stack = BitPlaneStack(_Adopted(f.bits((bins, f.height, f.width), "plane")), scheme)
    if not lax and not stack.is_one_hot():
        y, x = np.argwhere(stack.planes.sum(axis=0) != 1)[0]
        hot = stack.planes[:, y, x].sum()
        raise f.error(f"one-hot violation at pixel ({x}, {y}): {hot} bits set")
    return stack


def write_bps(path, stack: BitPlaneStack, comments=()) -> None:
    radii = " ".join(str(r) for r in stack.scheme.radii)
    header = f"BPS {stack.width} {stack.height} {stack.scheme.bins} {radii}"
    _write(path, [header, *_comment_lines(comments)], stack.planes)


def read_proposals(path) -> list[BoxProposal]:
    """Read a proposal list; mask paths resolve relative to the file."""
    base = os.path.dirname(os.path.abspath(path))
    out = []
    # bytes.splitlines breaks at \n, \r and \r\n only, like a text file.
    for lineno, raw in enumerate(_read_ascii(path).splitlines(), start=1):
        line = raw.decode("ascii").split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (6, 7):
            raise FormatError(f"{path}: line {lineno}: expected 6 or 7 fields, got {len(fields)}")
        # Fields, then the mask file, then the score range (in BoxProposal).
        try:
            int(fields[0])
            box = Box(*(int(v) for v in fields[1:5]))
            score = float(fields[5])
            mask = read_mask(os.path.join(base, fields[6])) if len(fields) == 7 else None
            out.append(BoxProposal(box, score, mask))
        except FormatError:
            raise
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise FormatError(f"{path}: line {lineno}: mask file not found: {fields[6]}") from None
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
    return out


def write_proposals(path, proposals, comments=()) -> None:
    """Write proposals; masks go to sibling PBM files when present.

    Masks go to "<path without extension>_masks", created on demand;
    mask references in the list file are relative to its directory.  A
    name putting whitespace, '#' or non-ASCII in them is a ValueError.
    """
    path = os.fspath(path)
    proposals = list(proposals)
    mask_dir = os.path.splitext(path)[0] + "_masks"
    ref = os.path.relpath(mask_dir, os.path.dirname(os.path.abspath(path))).replace(os.sep, "/")
    bad = [c for c in ref if not c.isascii() or c == "#" or ord(c) in _SPACE]
    if bad and any(p.mask is not None for p in proposals):
        raise ValueError(f"mask reference {ref!r} holds {bad[0]!r}, which a proposal list cannot read back")
    lines = _comment_lines(comments)
    for i, p in enumerate(proposals):
        b = p.box
        entry = f"{i} {b.x0} {b.y0} {b.x1} {b.y1} {p.score!r}"
        if p.mask is not None:
            os.makedirs(mask_dir, exist_ok=True)
            write_mask(os.path.join(mask_dir, f"mask_{i:04d}.pbm"), p.mask)
            entry += f" {ref}/mask_{i:04d}.pbm"
        lines.append(entry)
    _write(path, lines)


def write_csv(path, header: list[str], rows, comments=()) -> None:
    """Minimal deterministic CSV: '#' comments, header line, data rows.

    Cells are written verbatim, so a header or data cell holding ',',
    '\n' or '\r' is a ValueError, raised before any file is created.
    """
    lines = _comment_lines(comments)
    for cells in [header, *([_csv_cell(v) for v in row] for row in rows)]:
        for cell in cells:
            bad = [ch for ch in cell if ch in ",\n\r"]
            if bad:
                raise ValueError(f"CSV cell {cell!r} holds {bad[0]!r}, which a cell cannot carry")
        lines.append(",".join(cells))
    _write(path, lines)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "yes" if v else "no"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)
