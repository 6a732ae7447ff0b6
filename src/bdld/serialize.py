"""CSV/JSON helpers shared by the library and the CLI.

All floats are written with 17 significant digits ('%.17g'), which round-trips
float64 exactly, so rerunning an experiment with the same inputs produces
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

_CSV_BATCH = 512


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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header and the rows, which must all have the same length.

    The rows are taken _CSV_BATCH at a time and each batch is formatted a
    whole column per call, which is faster than row by row and keeps only
    one batch of formatted values in memory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        while batch := list(islice(rows, _CSV_BATCH)):
            columns = [list(map(format_value, column)) for column in zip(*batch, strict=True)]
            writer.writerows(zip(*columns))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    return header, rows


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
