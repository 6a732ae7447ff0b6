"""CSV/JSON helpers shared by the library and the CLI.

All floats are written with 17 significant digits ('%.17g'), which round-trips
float64 exactly, so rerunning an experiment with the same inputs produces
byte-identical files.

``write_csv`` takes one of two routes, set by its rows.  A structured
array whose fields are all float64 or int64 (a path, a law) is formatted
in numpy: each field's text as a byte matrix, a column of it per row, with
the first and end position of each row's text, and one masked compress of
the batch's matrix.  Its float cells get their digits in numpy, except
0.0 and -0.0, |x| <= 1e-6 or |x| >= 1e17, inf and nan, which get
format_value text.  Any other rows, and the header, go through csv.writer
over format_value text.  Both routes write csv.writer's bytes.

The float digits are exact.  For 1e-6 < |x| < 1e17, X = floor(log10|x|)
lies in [-6, 16], so 10**k with k = 16 - X is an exact double, and
Dekker's split product (Dekker 1971, no fused multiply-add) gives
p + e = |x| * 10**k exactly, p being the rounded product.  p lies in
[1e16, 1e17], where every double is an even integer, so the 17
significant digits are D = p + rint(e): p + e rounded half to even, as
'%.17g' rounds it (393830644827882.875 gives ...882.88).  X is checked
against p + e, since log10 can be off by one next to a power of ten.  D
never rounds up to 10**17: that needs a double less than 5e-18 of itself
below a power of ten, and in (1e-6, 1e17) the nearest ones lie at least
8e-17 below (checked exactly over 2000 doubles on each side of each
power).  The text is laid out as '%.17g' lays it out: fixed for
-4 <= X < 17, else d.ddde-05, trailing zeros stripped and a bare point
with them.

A path's (time, state) rows cost 0.32-0.39 us a row in ``write_csv``,
against 0.82-0.89 us with one '%' format string per batch of rows (the
``paths`` benchmark workload, traced, seeds 11-13, on a 2-core VM).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

_CSV_BATCH = 4096
_NUMERIC = (np.dtype(np.float64), np.dtype(np.int64))

# four ASCII digits of each of 0..9999, one uint32 apiece
_QUADS = (np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
          % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_POW10_INT = np.array([10**k for k in range(20)], dtype=np.uint64)
_SPLIT = 134217729.0  # 2**27 + 1


def format_value(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def jsonable(obj):
    """Make a nested structure strict-JSON safe: numpy scalars become Python
    numbers and non-finite floats become the strings "inf"/"-inf"/"nan"."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isfinite(value):
            return value
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if isinstance(obj, dict):
        return {key: jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(value) for value in obj]
    return obj


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo = a, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p, e with p = fl(a * 10**k) and p + e = a * 10**k exactly (Dekker's
    product, no fused multiply-add)."""
    p = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _text_field(texts: list[str]):
    """Byte matrix, a column per row, and first and end positions of each
    ASCII text."""
    encoded = [text.encode() for text in texts]
    ends = np.fromiter(map(len, encoded), np.intp, len(encoded))
    width = max(1, int(ends.max(initial=0)))
    chars = np.frombuffer(b"".join(e.ljust(width, b"\0") for e in encoded), np.uint8)
    return chars.reshape(len(encoded), width).T, 0, ends


def _quad_digits(quads: np.ndarray) -> np.ndarray:
    """The ASCII digits of (k, n) numbers below 10**4, as (4k, n) bytes."""
    k, n = quads.shape
    return _QUADS[quads].view(np.uint8).reshape(k, n, 4).transpose(0, 2, 1).reshape(4 * k, n)


def _int_field(v: np.ndarray):
    """Byte matrix, a column per row, and first and end positions of the
    decimal text of each int64: right-aligned digits after a slot for the
    sign."""
    u = np.abs(v).view(np.uint64)  # -2**63 stays -2**63, read as 2**63
    lengths = np.searchsorted(_POW10_INT[1:], u, side="right") + 1
    quads = -(-int(lengths.max()) // 4)
    width = 1 + 4 * quads
    chars = np.empty((width, len(v)), np.uint8)
    chars[1:] = _quad_digits(u // _POW10_INT[4 * quads - 4::-4, None] % 10_000)
    starts = width - lengths
    neg = np.flatnonzero(v < 0)
    starts[neg] -= 1
    chars[starts[neg], neg] = ord("-")
    return chars, starts, width


def _float_field(x: np.ndarray):
    """Byte matrix, a column per row, and first and end positions of the
    '%.17g' text of each float64.  Rows 0-5 hold the sign and any '0.000'
    prefix, rows 6-23 the digits with their point, and an exponent follows
    the last digit kept."""
    n = len(x)
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    exp = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    p, e = _scaled(a, 16 - exp)
    low = (p < 1e16) | ((p == 1e16) & (e < 0))  # p + e < 1e16: X one too large
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    off = np.flatnonzero(low | high)
    if off.size:
        exp[off] += high[off].astype(np.intp) - low[off]
        p[off], e[off] = _scaled(a[off], 16 - exp[off])
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    head, tail = np.divmod(digits, 10**8)
    first, head = np.divmod(head, 10**8)
    quads = np.empty((4, n), np.int64)
    np.divmod(head, 10**4, out=(quads[0], quads[1]))
    np.divmod(tail, 10**4, out=(quads[2], quads[3]))
    ascii = np.empty((19, n), np.uint8)  # the 17 digits between two spare rows
    ascii[1] = first + ord("0")
    ascii[2:18] = _quad_digits(quads)
    # the digits up to the last nonzero one
    kept = np.max((ascii[1:18] != ord("0")) * np.arange(1, 18, dtype=np.uint8)[:, None], axis=0)
    point = np.where(exp >= 0, exp + 1, np.where(exp >= -4, 18, 1))
    chars = np.empty((28, n), np.uint8)
    chars[:6] = ord("0")
    body = chars[6:24]
    body[:] = ascii[:18]
    rows, at = np.arange(18, dtype=np.uint8)[:, None], point.astype(np.uint8)
    np.copyto(body, ascii[1:], where=rows < at)
    np.copyto(body, ord("."), where=rows == at)
    ends = 6 + np.where(kept > point, kept + 1, np.where(exp >= 0, point, kept))
    starts = np.full(n, 6)
    small = np.flatnonzero(exp < -4)
    if small.size:  # d.ddde-0X
        chars[ends[small] + np.arange(3)[:, None], small] = np.frombuffer(b"e-0", np.uint8)[:, None]
        chars[ends[small] + 3, small] = ord("0") - exp[small]
        ends[small] += 4
    below = np.flatnonzero((exp < 0) & (exp >= -4))  # 0.000ddd
    starts[below] += exp[below] - 1
    chars[6 + exp[below], below] = ord(".")
    neg = np.flatnonzero(np.signbit(x) & fast)
    starts[neg] -= 1
    chars[starts[neg], neg] = ord("-")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text, _, text_ends = _text_field([format_value(v) for v in x[slow].tolist()])
        chars[:text.shape[0], slow] = text
        starts[slow] = 0
        ends[slow] = text_ends
    return chars, starts, ends


def _csv_bytes(batch: np.ndarray, width: int) -> bytes:
    """The CSV lines of a structured array of ``width`` float64 and int64 fields."""
    if len(batch.dtype.names) != width:
        raise ValueError(f"every row must have the header's {width} fields")
    fields = []
    for name in batch.dtype.names:  # each field's rows trimmed to those its text covers
        cells = batch[name]
        chars, starts, ends = (_float_field if cells.dtype == np.float64 else _int_field)(cells)
        first = int(np.min(starts))
        fields.append((chars[first:int(np.max(ends))], starts - first, ends - first))
    # each field and the comma after it, then CR LF over the last comma
    lines = np.empty((sum(chars.shape[0] + 1 for chars, _, _ in fields) + 1, len(batch)), np.uint8)
    keep = np.ones(lines.shape, bool)
    top = 0
    for chars, starts, ends in fields:
        w = chars.shape[0]
        lines[top:top + w] = chars
        small = np.uint8 if w < 256 else np.intp  # uint8 compares run faster
        rows = np.arange(w, dtype=small)[:, None]
        np.logical_and(rows >= np.asarray(starts, small), rows < np.asarray(ends, small),
                       out=keep[top:top + w])
        lines[top + w] = ord(",")
        top += w + 1
    lines[-2:] = np.array([[ord("\r")], [ord("\n")]])
    return lines.T[keep.T].tobytes()


def _csv_lines(rows, width: int) -> bytes:
    """csv.writer's lines of rows of ``width`` cells, each cell's
    format_value text."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"every row must have the header's {width} fields")
        writer.writerow(map(format_value, row))
    return text.getvalue().encode()


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write the header and the rows, each with the header's number of
    fields (a structured array has a field per column), _CSV_BATCH rows at a
    time, so only one batch of formatted text is held in memory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width = len(header)
    names = rows.dtype.names if isinstance(rows, np.ndarray) else None
    numeric = bool(names) and all(rows.dtype[name] in _NUMERIC for name in names)
    with open(path, "wb") as fh:
        fh.write(_csv_lines([header], width))
        for start in range(0, len(rows), _CSV_BATCH):
            batch = rows[start:start + _CSV_BATCH]
            fh.write(_csv_bytes(batch, width) if numeric else _csv_lines(batch, width))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty")
        rows = [row for row in reader if row]
    return header, rows


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
