"""Row-oriented numerical result tables with deterministic CSV/JSON output.

Values render with 17 significant digits so finite doubles round-trip
exactly; infinities are written as "inf"/"-inf".
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ScanTable:
    columns: tuple
    rows: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        cols = tuple(str(c) for c in self.columns)
        object.__setattr__(self, "columns", cols)
        if len(set(cols)) != len(cols):
            raise ValueError("column names must be unique")
        rows = np.asarray(self.rows, dtype=float)
        if len(rows) and rows.shape != (len(rows), len(cols)):
            raise ValueError("every row must have every column")
        if np.isnan(rows).any():
            raise ValueError("NaN values are not representable")
        object.__setattr__(self, "rows", rows.tolist())


# printf-style, so that a whole table renders in one % of a repeated row
# template; "%.17g" % v is format(v, ".17g"), "inf" and "-inf" included
_FORMAT = "%.17g"


def format_value(v: float) -> str:
    return _FORMAT % v


def to_csv(table: ScanTable) -> bytes:
    row = ",".join([_FORMAT] * len(table.columns)) + "\n"
    values = tuple(itertools.chain.from_iterable(table.rows))
    return (",".join(table.columns) + "\n" + row * len(table.rows) % values).encode("ascii")


def from_csv(data: bytes, meta=None) -> ScanTable:
    text = data.decode("ascii")
    lines = [ln for ln in text.split("\n") if ln != ""]
    columns = tuple(lines[0].split(",")) if lines[0] else ()
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return ScanTable(columns, rows, dict(meta or {}))


def _encode_meta(obj):
    if isinstance(obj, dict):
        return {str(k): _encode_meta(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_meta(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def to_json(table: ScanTable) -> bytes:
    payload = {
        "meta": _encode_meta(table.meta),
        "columns": list(table.columns),
        "rows": _encode_meta(table.rows),
    }
    return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("ascii")


def from_json(data: bytes) -> ScanTable:
    payload = json.loads(data.decode("ascii"))
    rows = [
        [math.inf if v == "inf" else -math.inf if v == "-inf" else float(v) for v in row]
        for row in payload["rows"]
    ]
    return ScanTable(tuple(payload["columns"]), rows, payload.get("meta", {}))
