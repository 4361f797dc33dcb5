"""Batch CLI: exit codes, diagnostics, output formats, determinism."""
import json

import numpy as np
import pytest

from dualgeo import cli, continuum, tables
from dualgeo.errors import NonConvergenceError

INVOCATIONS = {
    "fisher": ["fisher", "--family", "bernoulli", "--chart", "mean", "--point", "0.3"],
    "legendre": ["legendre", "--family", "gaussian", "--theta", "1.0,-0.5"],
    "divergence": [
        "divergence", "--family", "gaussian", "--chart", "raw",
        "--p", "0,1", "--q", "0.5,1.2", "--r", "0.2,1.1",
    ],
    "lengths": [
        "lengths", "--family", "bernoulli", "--chart", "mean",
        "--start", "0.2", "--end", "0.8", "--count", "33",
    ],
    "geodesic": [
        "geodesic", "--family", "bernoulli", "--chart", "mean",
        "--a", "0.2", "--b", "0.8", "--alpha", "1", "--count", "17",
    ],
    "berry": [
        "berry", "--family", "spin-half", "--theta-c", "1.5707963",
        "--segments", "256", "--surface-nu", "32", "--surface-nv", "64",
    ],
    "chsh": ["chsh", "--state", "singlet", "--scan", "24"],
    "decompose": ["decompose", "--theta", "0.7", "--n", "2.0"],
    "membrane": ["membrane", "--T", "1", "--p", "1", "--R", "1", "--nodes", "64"],
    "string": ["string", "--A", "1", "--fs", "1", "--x", "1.5707963267948966"],
}


def run(argv, tmp_path, name="out"):
    out = tmp_path / f"{name}.dat"
    code = cli.main(argv + ["--output", str(out)])
    return code, out.read_bytes() if out.exists() else b""


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_subcommand_succeeds(name, tmp_path):
    code, data = run(INVOCATIONS[name], tmp_path)
    assert code == 0
    table = tables.from_csv(data)
    assert len(table.rows) >= 1


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_subcommand_deterministic(name, tmp_path):
    _, first = run(INVOCATIONS[name], tmp_path, "first")
    _, second = run(INVOCATIONS[name], tmp_path, "second")
    assert first == second


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subcommand_clean_under_runtime_warning_error(name, tmp_path):
    code, _ = run(INVOCATIONS[name], tmp_path)
    assert code == 0


def test_json_output_carries_provenance(tmp_path):
    code, data = run(INVOCATIONS["fisher"] + ["--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(data)
    meta = payload["meta"]
    assert meta["operation"] == "fisher"
    assert meta["seed"] == 0
    assert meta["parameters"]["point"] == "0.3"
    assert meta["parameters"]["family"] == "bernoulli"


def test_fisher_value(tmp_path):
    _, data = run(INVOCATIONS["fisher"], tmp_path)
    table = tables.from_csv(data)
    assert abs(table.rows[0][2] - 1.0 / (0.3 * 0.7)) < 1e-10


def test_berry_documented_example(tmp_path):
    _, data = run(INVOCATIONS["berry"], tmp_path)
    table = tables.from_csv(data)
    row = dict(zip(table.columns, table.rows[0]))
    assert abs(row["loop_phase"] - (-3.14159)) < 1e-4
    assert row["discrepancy"] < 1e-3


def test_chsh_documented_example(tmp_path):
    _, data = run(INVOCATIONS["chsh"] + ["--format", "json"], tmp_path)
    payload = json.loads(data)
    assert abs(payload["meta"]["max_abs_S"] - 2.0 * np.sqrt(2.0)) < 1e-6


def test_membrane_documented_example(tmp_path):
    code, data = run(
        ["membrane", "--T", "1", "--p", "1", "--R", "1", "--nodes", "512", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(data)
    assert payload["meta"]["max_error"] <= 1e-5


def test_chsh_explicit_settings(tmp_path):
    argv = ["chsh", "--state", "singlet", "--settings", "0,1.5707963267948966,0.7853981633974483,2.356194490192345"]
    code, data = run(argv, tmp_path)
    assert code == 0
    table = tables.from_csv(data)
    row = dict(zip(table.columns, table.rows[0]))
    assert abs(row["S"] - (-2.0 * np.sqrt(2.0))) < 1e-9


def test_deg_switch(tmp_path):
    rad = ["decompose", "--theta", str(np.pi / 4.0)]
    deg = ["decompose", "--theta", "45", "--deg"]
    _, out_rad = run(rad, tmp_path, "rad")
    _, out_deg = run(deg, tmp_path, "deg")
    r1 = tables.from_csv(out_rad).rows[0]
    r2 = tables.from_csv(out_deg).rows[0]
    assert abs(r1[0] - r2[0]) < 1e-12


def test_decompose_conservation(tmp_path):
    _, data = run(INVOCATIONS["decompose"], tmp_path)
    row = dict(zip(("E", "C", "total", "nats", "bits"), tables.from_csv(data).rows[0]))
    assert row["total"] == 2.0


def test_unknown_flag_exits_2(capsys, tmp_path):
    assert cli.main(["fisher", "--family", "bernoulli", "--point", "0.3", "--bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")


def test_bad_value_exits_2(capsys):
    assert cli.main(["fisher", "--family", "bernoulli", "--chart", "mean", "--point", "oops"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: value: ")


def test_invalid_parameter_exits_2(capsys):
    # Bernoulli eta outside (0, 1) trips family validation
    assert cli.main(["fisher", "--family", "bernoulli", "--chart", "mean", "--point", "1.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parameters: ")


def test_missing_required_exits_2(capsys):
    assert cli.main(["chsh", "--state", "partial", "--scan", "12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: weight: ")


def test_nonconvergence_exits_3(monkeypatch, capsys):
    def boom(model, x):
        raise NonConvergenceError("quadrature stalled")

    monkeypatch.setattr(continuum, "string_length_report", boom)
    assert cli.main(["string", "--A", "1", "--fs", "1", "--x", "1.0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerics: ")


def test_singular_geodesic_exits_3(tmp_path, capsys):
    argv = ["geodesic", "--family", "bernoulli", "--chart", "natural", "--a", "-30", "--b", "30", "--alpha", "0"]
    code, _ = run(argv, tmp_path)
    assert code == 3
    assert capsys.readouterr().err.startswith("error: numerics: ")


def test_wide_bernoulli_geodesic_exits_3_or_joins_endpoints(tmp_path, capsys):
    argv = ["geodesic", "--family", "bernoulli", "--chart", "mean", "--a", "0.1", "--b", "0.9", "--alpha", "0"]
    code, data = run(argv, tmp_path)
    if code == 0:
        rows = tables.from_csv(data).rows
        assert abs(rows[0][1] - 0.1) < 1e-12 and abs(rows[-1][1] - 0.9) < 1e-6
    else:
        assert code == 3
        assert capsys.readouterr().err.startswith("error: numerics: ")


BERRY = ["berry", "--theta-c", "1.0"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["chsh", "--state", "singlet", "--scan", str(cli.MAX_SCAN + 1)], "scan"),
        (["chsh", "--state", "singlet", "--scan", "4"], "scan"),
        (BERRY + ["--segments", str(cli.MAX_SEGMENTS + 1)], "segments"),
        (BERRY + ["--segments", "-5"], "segments"),
        (BERRY + ["--surface-nu", str(cli.MAX_MESH_POINTS + 1)], "surface-nu"),
        (BERRY + ["--surface-nv", "0"], "surface-nv"),
        (BERRY + ["--surface-nu", "1023", "--surface-nv", "1024"], "surface-mesh"),
        (BERRY + ["--surface-nu", "4096"], "surface-mesh"),
    ],
)
def test_scan_and_mesh_sizes_bounded(argv, field, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_largest_mesh_accepted(tmp_path):
    # (1023 + 1) * (1023 + 1) = 2^20 mesh points is the largest accepted surface
    argv = BERRY + ["--segments", "8", "--surface-nu", "1023", "--surface-nv", "1023"]
    code, data = run(argv, tmp_path)
    assert code == 0
    row = dict(zip(("loop_phase", "surface_flux"), tables.from_csv(data).rows[0]))
    assert abs(row["surface_flux"] - (-np.pi * (1.0 - np.cos(1.0)))) < 1e-5


def test_saturated_logits_divergence_is_finite(tmp_path):
    # sigmoid(40) rounds to 1.0; log-sigmoid probabilities keep both
    # directions at 40 - 80 sigmoid(-40) nats, 40.0 in double precision
    argv = ["divergence", "--family", "bernoulli", "--chart", "natural", "--p", "40", "--q", "-40"]
    code, data = run(argv, tmp_path)
    assert code == 0
    row = dict(zip(tables.from_csv(data).columns, tables.from_csv(data).rows[0]))
    assert abs(row["kl_pq"] - 40.0) < 1e-12
    assert abs(row["kl_qp"] - 40.0) < 1e-12
    assert abs(row["bregman"] - 40.0) < 1e-12


LENGTHS = ["lengths", "--family", "bernoulli", "--chart", "mean", "--start", "0.2", "--end", "0.8"]
GEODESIC = ["geodesic", "--family", "bernoulli", "--chart", "mean", "--a", "0.2", "--b", "0.8", "--alpha", "1"]
MEMBRANE = ["membrane", "--T", "1", "--p", "1", "--R", "1"]
CAT_LENGTHS = ["lengths", "--family", "categorical", "--chart", "natural", "--start", "0", "--end", "1"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (LENGTHS + ["--count", str(cli.MAX_COUNT + 1)], "count"),
        (LENGTHS + ["--count", "1"], "count"),
        (GEODESIC + ["--count", str(cli.MAX_COUNT + 1)], "count"),
        (GEODESIC + ["--count", "1"], "count"),
        (MEMBRANE + ["--nodes", str(cli.MAX_NODES + 1)], "nodes"),
        (MEMBRANE + ["--nodes", "15"], "nodes"),
        (["fisher", "--family", "categorical", "--k", str(cli.MAX_K + 1), "--point", "0.1"], "k"),
        (["fisher", "--family", "categorical", "--k", "1", "--point", "0.1"], "k"),
        # k = 64: (k - 1)^2 = 3969, so at most 264 samples
        (CAT_LENGTHS + ["--k", "64", "--count", "265"], "count"),
    ],
)
def test_size_flags_bounded(argv, field, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_size_flag_edges_accepted(tmp_path):
    # the smallest accepted sizes, and the largest path of a 2-parameter family
    assert run(LENGTHS + ["--count", "2"], tmp_path)[0] == 0
    assert run(GEODESIC + ["--count", "2"], tmp_path)[0] == 0
    assert run(MEMBRANE + ["--nodes", "16"], tmp_path)[0] == 0
    argv = ["lengths", "--family", "gaussian", "--chart", "raw", "--start", "0,1", "--end", "1,2"]
    code, data = run(argv + ["--count", str(cli.MAX_COUNT)], tmp_path)
    assert code == 0
    row = dict(zip(tables.from_csv(data).columns, tables.from_csv(data).rows[0]))
    # the straight raw-chart segment is longer than the Fisher-Rao distance
    # sqrt(2) arccosh(11/8) = 1.18938..., and within 1% of it
    assert 1.18938 < row["primal"] < 1.01 * 1.18938
    assert row["grid_size"] == cli.MAX_COUNT
