"""Row-oriented numerical result tables with deterministic CSV/JSON output.

Values render with 17 significant digits so finite doubles round-trip
exactly; infinities are written as "inf"/"-inf".
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


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
        rows = [[float(v) for v in row] for row in self.rows]
        for row in rows:
            if len(row) != len(cols):
                raise ValueError("every row must have every column")
            for v in row:
                if math.isnan(v):
                    raise ValueError("NaN values are not representable")
        object.__setattr__(self, "rows", rows)


def format_value(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def to_csv(table: ScanTable) -> bytes:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(format_value(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


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
        "rows": [
            [("inf" if v > 0 else "-inf") if math.isinf(v) else v for v in row]
            for row in table.rows
        ],
    }
    return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode("ascii")


def from_json(data: bytes) -> ScanTable:
    payload = json.loads(data.decode("ascii"))
    rows = [
        [math.inf if v == "inf" else -math.inf if v == "-inf" else float(v) for v in row]
        for row in payload["rows"]
    ]
    return ScanTable(tuple(payload["columns"]), rows, payload.get("meta", {}))
