"""Deterministic CSV/JSON serialization of result tables."""
import math

import numpy as np
import pytest

from dualgeo import tables as T

RNG = np.random.default_rng(20240822)


def test_table_invariants():
    with pytest.raises(ValueError):
        T.ScanTable(("a", "a"), [[1.0, 2.0]])
    with pytest.raises(ValueError):
        T.ScanTable(("a", "b"), [[1.0]])
    with pytest.raises(ValueError):
        T.ScanTable(("a",), [[float("nan")]])


def test_format_value_17_digits():
    assert T.format_value(1.0 / 3.0) == "0.33333333333333331"
    assert T.format_value(math.inf) == "inf"
    assert T.format_value(-math.inf) == "-inf"
    assert T.format_value(0.0) == "0"


def test_csv_round_trip_exact():
    rows = [[v] for v in RNG.normal(size=50) * 10.0 ** RNG.integers(-12, 12, size=50)]
    table = T.ScanTable(("x",), rows)
    back = T.from_csv(T.to_csv(table))
    for a, b in zip(table.rows, back.rows):
        assert a[0] == b[0]  # bit-exact round trip


def test_csv_layout():
    table = T.ScanTable(("x", "y"), [[1.0, 2.5]])
    data = T.to_csv(table)
    assert data == b"x,y\n1,2.5\n"


def test_csv_infinities():
    table = T.ScanTable(("d",), [[math.inf], [-math.inf]])
    back = T.from_csv(T.to_csv(table))
    assert back.rows[0][0] == math.inf
    assert back.rows[1][0] == -math.inf


def test_json_round_trip_exact():
    rows = [[v, -v] for v in RNG.normal(size=40)]
    meta = {"operation": "demo", "tolerances": {"abs": 1e-9}, "big": math.inf}
    table = T.ScanTable(("x", "y"), rows, meta)
    back = T.from_json(T.to_json(table))
    assert back.columns == table.columns
    for a, b in zip(table.rows, back.rows):
        assert a == b
    assert back.meta["operation"] == "demo"
    assert back.meta["big"] == "inf"  # meta infinities stay tagged


def test_json_infinity_cells():
    table = T.ScanTable(("d",), [[math.inf]])
    data = T.to_json(table)
    assert b'"inf"' in data
    back = T.from_json(data)
    assert back.rows[0][0] == math.inf


def test_serialization_deterministic():
    table = T.ScanTable(("a", "b"), [[0.1, 0.2], [0.3, 0.4]], {"seed": 0})
    assert T.to_csv(table) == T.to_csv(table)
    assert T.to_json(table) == T.to_json(table)


def test_json_compact_ascii():
    table = T.ScanTable(("a",), [[1.5]], {"note": "ok"})
    data = T.to_json(table)
    assert b" " not in data
    data.decode("ascii")


def per_value_csv(table):
    """The CSV bytes with one format(v, ".17g") call per value."""
    lines = [",".join(table.columns)] + [",".join(format(v, ".17g") for v in row) for row in table.rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_csv_template_matches_per_value_format():
    rng = np.random.default_rng(32)
    rows = rng.normal(size=(1000, 4)) * 10.0 ** rng.integers(-320, 308, (1000, 4))
    rows[:3] = [
        [math.inf, -math.inf, 0.0, -0.0],
        [5e-324, -2.2250738585072014e-308, 1e-310, 2.0**53 + 1.0],
        [1e22, 123456789012345678.0, -1e308, 1.7976931348623157e308],
    ]
    for table in (T.ScanTable(("a", "b", "c", "d"), rows), T.ScanTable(("x",), []), T.ScanTable((), [])):
        assert T.to_csv(table) == per_value_csv(table)
