"""Batch CLI: exit codes, diagnostics, output formats, determinism."""
import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ellipeinc

import dualgeo
from dualgeo import cli, continuum, tables
from dualgeo.distributions import Gaussian1D
from dualgeo.errors import NonConvergenceError
from dualgeo.lengths import ParamPath, primal_length

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
def test_subcommand_clean_under_runtime_warning_error(name, tmp_path):
    code, _ = run(INVOCATIONS[name], tmp_path)
    assert code == 0


def test_json_output_carries_provenance(tmp_path):
    code, data = run(INVOCATIONS["fisher"] + ["--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(data)
    meta = payload["meta"]
    assert meta["operation"] == "fisher"
    # nothing in the library is random: no seed in the provenance
    assert "seed" not in meta and "seed" not in meta["parameters"]
    assert meta["parameters"]["point"] == "0.3"
    assert meta["parameters"]["family"] == "bernoulli"
    assert "deg" not in meta["parameters"]  # fisher reads no angle


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
    # --deg exists only where angles are read: berry, chsh and decompose
    for flag in ("--bogus", "--deg"):
        assert cli.main(["fisher", "--family", "bernoulli", "--point", "0.3", flag]) == 2
        err = capsys.readouterr().err
        assert err == f"error: args: unrecognized arguments: {flag}\n"


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


@pytest.mark.parametrize(
    "chart, a, b, distance",
    [
        ("raw", "1000,1", "1000.009,1", np.sqrt(2.0) * np.arccosh(1.0 + 0.009**2 / 4.0)),
        # sigma from 1 to sqrt(1.001)
        ("mean", "10,101", "10,101.001", np.log(1.001) / np.sqrt(2.0)),
    ],
)
def test_near_coincident_geodesic_endpoints_are_joined(chart, a, b, distance, tmp_path):
    # endpoints within np.allclose of each other once gave the constant path at a
    argv = ["geodesic", "--family", "gaussian", "--chart", chart, "--a", a, "--b", b, "--alpha", "0"]
    code, data = run(argv, tmp_path)
    assert code == 0
    rows = np.array(tables.from_csv(data).rows)
    assert np.max(np.abs(rows[-1, 1:] - np.array(b.split(","), dtype=float))) <= 1e-6
    path = ParamPath(chart, rows[:, 1:], rows[:, 0])
    assert abs(primal_length(path, Gaussian1D()) - distance) <= 1e-4 * distance


def test_wide_bernoulli_geodesic_runs_linearly_in_arcsin_sqrt_eta(tmp_path):
    # the first trial velocity 0.8 overshoots eta = 1 and is halved; the
    # Levi-Civita geodesic runs at constant speed in arcsin sqrt(eta)
    argv = ["geodesic", "--family", "bernoulli", "--chart", "mean", "--a", "0.1", "--b", "0.9", "--alpha", "0"]
    code, data = run(argv, tmp_path)
    assert code == 0
    t, eta = np.array(tables.from_csv(data).rows).T
    assert abs(eta[0] - 0.1) < 1e-12 and abs(eta[-1] - 0.9) < 1e-8
    phi = np.arcsin(np.sqrt(eta))
    assert np.max(np.abs(phi - (phi[0] + t * (phi[-1] - phi[0])))) < 1e-8


@pytest.mark.parametrize(
    "argv, reason",
    [
        # s(800) s(-800) underflows: no positive definite metric, not g = 0
        (["fisher", "--family", "bernoulli", "--chart", "natural", "--point", "800"], "positive definite"),
        # 1 / sigma^2 and its higher powers overflow
        (["fisher", "--family", "gaussian", "--chart", "raw", "--point", "0,1e-200"], "sigma must be at least"),
        # the same bound in the natural and mean charts: sigma = 7e-101 and 1e-150
        (["fisher", "--family", "gaussian", "--chart", "natural", "--point", "0,-1e200"], "sigma must be at least"),
        (["fisher", "--family", "gaussian", "--chart", "mean", "--point", "0,1e-300"], "sigma must be at least"),
        # |mu| / sigma = 7e199 and 1e200, whose squares overflow
        (["fisher", "--family", "gaussian", "--chart", "natural", "--point", "1e200,-1"], "|mu| / sigma must be at most"),
        (["fisher", "--family", "gaussian", "--chart", "raw", "--point", "1e200,1"], "|mu| / sigma must be at most"),
        # sigma = 1e60, whose sixth power in psi_222 overflows, and 7e76
        (["fisher", "--family", "gaussian", "--chart", "raw", "--point", "0,1e60"], "sigma must be at most"),
        (["fisher", "--family", "gaussian", "--chart", "natural", "--point", "0,-1e-154"], "sigma must be at most"),
        # eta1^2 overflows: the variance is negative, not an overflow
        (["fisher", "--family", "gaussian", "--chart", "mean", "--point", "1e200,1"], "variance"),
        # 1 / (eta (1 - eta)) = 1e310 overflows
        (["fisher", "--family", "bernoulli", "--chart", "mean", "--point", "1e-310"], "must be finite"),
    ],
)
def test_unrepresentable_metric_exits_2(argv, reason, tmp_path, capsys):
    code, data = run(argv, tmp_path)
    assert code == 2 and data == b""
    err = capsys.readouterr().err
    assert err.startswith("error: parameters: ") and reason in err


def test_far_negative_logit_divergence_is_clean(tmp_path):
    # sigmoid(-800) underflows to 0 without an overflow in exp(800); the KL
    # from certain tails to a fair coin is log 2
    argv = ["divergence", "--family", "bernoulli", "--chart", "natural", "--p", "-800", "--q", "0"]
    code, data = run(argv, tmp_path)
    assert code == 0
    row = dict(zip(tables.from_csv(data).columns, tables.from_csv(data).rows[0]))
    assert abs(row["kl_pq"] - np.log(2.0)) < 1e-15


@pytest.mark.parametrize(
    "argv",
    [
        # p / T overflows in the load vector
        ["membrane", "--T", "1e-320", "--p", "1", "--R", "1", "--nodes", "16"],
        # the discrete deflections, about p R^2 / (4 T) = 2.5e327, overflow
        ["membrane", "--T", "1", "--p", "1e308", "--R", "1e10"],
        # the grid spacing squared, (1e-200 / 16)^2, underflows to 0
        ["membrane", "--T", "1", "--p", "1", "--R", "1e-200", "--nodes", "16"],
        # ... or to a subnormal double, 3.9e-311, short of its digits
        ["membrane", "--T", "1", "--p", "1", "--R", "1e-154", "--nodes", "16"],
    ],
)
def test_unrepresentable_membrane_exits_3(argv, tmp_path, capsys):
    code, data = run(argv, tmp_path)
    assert code == 3 and data == b""
    assert capsys.readouterr().err.startswith("error: numerics: membrane solve overflowed")


def test_large_membrane_closed_form_is_finite(tmp_path):
    # p (r^2 - R^2) = 1e320 overflows, but the deflections are about -2.5e19
    code, data = run(["membrane", "--T", "1e300", "--p", "1e200", "--R", "1e60"], tmp_path)
    assert code == 0
    r, w, exact, _ = np.array(tables.from_csv(data).rows).T
    assert abs(exact[0] + 2.5e19) <= 1e-15 * 2.5e19
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(exact))


@pytest.mark.parametrize("fs, x", [("1", "1000"), ("100", "100")])
def test_long_string_is_elliptic_arc_length(fs, x, tmp_path):
    # both once exited 3: the adaptive quadratures gave up on many periods
    code, data = run(["string", "--A", "1", "--fs", fs, "--x", x], tmp_path)
    assert code == 0
    row = dict(zip(tables.from_csv(data).columns, tables.from_csv(data).rows[0]))
    # A = 1: sqrt(1 + fs^2) / fs * E(fs x | fs^2 / (1 + fs^2))
    fs, x = float(fs), float(x)
    oracle = np.sqrt(1.0 + fs**2) / fs * ellipeinc(fs * x, fs**2 / (1.0 + fs**2))
    assert abs(row["exact_length"] - oracle) <= 1e-14 * oracle


@pytest.mark.parametrize(
    "argv",
    [
        # c = A f_s = 1e400 overflows
        ["string", "--A", "1e200", "--fs", "1e200", "--x", "1"],
        # the phase f_s x = 1e400 overflows
        ["string", "--A", "1", "--fs", "1e200", "--x", "1e200"],
    ],
)
def test_unrepresentable_string_exits_3(argv, tmp_path, capsys):
    code, data = run(argv, tmp_path)
    assert code == 3 and data == b""
    assert capsys.readouterr().err.startswith("error: numerics: arc length overflows")


@pytest.mark.parametrize(
    "argv",
    [
        # the wavelength 2 pi / f_s = 6.3e310 overflows; the arc length is the chord 1
        ["string", "--A", "1", "--fs", "1e-310", "--x", "1"],
        # the wavelength is 2 pi, its ratio to the domain 6.3e310 overflows
        ["string", "--A", "1", "--fs", "1", "--x", "1e-310"],
    ],
)
def test_unrepresentable_wavelength_exits_3(argv, tmp_path, capsys):
    # both once exited 0 with inf in the table
    code, data = run(argv, tmp_path)
    assert code == 3 and data == b""
    assert capsys.readouterr().err.startswith("error: numerics: wavelength overflows")


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


# -- the exit-code contract over wide argv -----------------------------------
# Every subcommand, with numbers from the wide, near-boundary and non-finite
# ends of the doubles, and small sizes so that each run is quick: exit 0, 2 or
# 3, an "error: " line on every non-zero exit, and no traceback, with a
# RuntimeWarning raised as an error.

NUMBER = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "0.5", "1e-310", "-1e-300", "1e300", "-1e308", "inf", "-inf", "nan", "1e400"]),
    st.floats(-4.0, 4.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
NUMBERS = st.lists(NUMBER, min_size=1, max_size=3).map(",".join)
K = {"k": st.integers(2, 4)}
FAMILY = {
    "family": st.sampled_from(["gaussian", "bernoulli", "categorical"]),
    "chart": st.sampled_from(["natural", "mean", "raw"]),
    **K,
}
# subcommand -> (required flags, optional flags)
FUZZ_FLAGS = {
    "fisher": ({**FAMILY, "point": NUMBERS}, {}),
    "legendre": ({"family": st.sampled_from(["gaussian", "bernoulli", "categorical", "quadratic"]),
                  "theta": NUMBERS, **K}, {}),
    "divergence": ({**FAMILY, "p": NUMBERS, "q": NUMBERS}, {"r": NUMBERS}),
    "lengths": ({**FAMILY, "start": NUMBERS, "end": NUMBERS, "count": st.integers(2, 9)}, {}),
    "geodesic": ({**FAMILY, "a": NUMBERS, "b": NUMBERS, "alpha": st.sampled_from([-1, 0, 1]),
                  "count": st.integers(2, 9)}, {}),
    "berry": ({"theta-c": NUMBER, "segments": st.integers(8, 64), "surface-nu": st.integers(1, 8),
               "surface-nv": st.integers(1, 8)}, {}),
    "chsh": ({"state": st.sampled_from(["singlet", "product", "partial"])},
             {"weight": NUMBER, "settings": NUMBERS, "scan": st.integers(8, 12)}),
    "decompose": ({"theta": NUMBER, "n": NUMBER}, {}),
    "membrane": ({"T": NUMBER, "p": NUMBER, "R": NUMBER, "nodes": st.integers(16, 40)}, {}),
    "string": ({"A": NUMBER, "fs": NUMBERS, "x": NUMBER}, {}),
}


def fuzz_argv(name):
    required, optional = FUZZ_FLAGS[name]
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda flags: [name] + [f"--{k}={v}" for k, v in flags.items()]
    )


def run_clean(argv):
    """Exit code, stderr and table bytes of argv, with a RuntimeWarning raised
    as an error."""
    err, out = io.StringIO(), io.TextIOWrapper(io.BytesIO())
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    return code, err.getvalue(), out.buffer.getvalue()


@pytest.mark.parametrize("name", sorted(FUZZ_FLAGS))
def test_exit_code_contract_over_wide_argv(name):
    @given(fuzz_argv(name))
    def check(argv):
        code, err, data = run_clean(argv)
        assert code in (0, 2, 3), argv
        assert code == 0 or err.startswith("error: "), argv
        # no silent inf: a table on exit 0 holds finite numbers only
        assert code != 0 or np.isfinite(tables.from_csv(data).rows).all(), argv

    check()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["membrane", "--T", "inf", "--p", "1", "--R", "1"], "tension"),
        (["decompose", "--theta", "1", "--n", "inf"], "n"),
        (["berry", "--theta-c", "nan"], "theta-c"),
        (["lengths", "--family", "bernoulli", "--start", "0.2", "--end", "inf"], "end"),
        (["fisher", "--family", "gaussian", "--chart", "raw", "--point", "1e400,1"], "point"),
    ],
)
def test_non_finite_numbers_exit_2_when_parsed(argv, field):
    # each once reached the numerics: a ZeroDivisionError traceback from the
    # membrane's convergence orders, or RuntimeWarnings before exit 2
    assert run_clean(argv) == (2, f"error: {field}: must be finite\n", b"")


def test_legendre_theta_validated_with_the_family():
    code, err, _ = run_clean(["legendre", "--family", "gaussian", "--theta", "1,0"])
    assert code == 2 and err.startswith("error: parameters: second natural parameter must be negative")


@pytest.mark.parametrize("pt, g11", [("1e8,1", 2.0), ("1234567.8,1.3", 2.0 / 1.69), ("0.4,1.3", 2.0 / 1.69)])
def test_raw_gaussian_fisher_metric_is_diagonal_at_any_mean(pt, g11, tmp_path):
    # diag(1, 2) / sigma^2: J^T psi'' J cancelled terms of size (mu / sigma)^2,
    # left g_01 = 4e-17 at 0.4,1.3 and no positive definite metric at 1e8,1
    code, data = run(["fisher", "--family", "gaussian", "--chart", "raw", "--point", pt], tmp_path)
    assert code == 0
    g = np.array(tables.from_csv(data).rows)[:, 2].reshape(2, 2)
    assert g[0, 1] == g[1, 0] == 0.0
    assert abs(g[1, 1] - g11) <= np.spacing(g11) and g[0, 0] == 0.5 * g[1, 1]


def test_categorical_natural_metric_where_a_first_outcome_takes_almost_all_the_mass(tmp_path):
    # psi''_00 = p_0 (p_1 + p_2) = 2 e^-40 to rounding, where p_0 - p_0^2
    # rounded to 0 and the metric was not positive definite
    code, data = run(["fisher", "--family", "categorical", "--k", "3", "--chart", "natural",
                      "--point", "40,0"], tmp_path)
    assert code == 0
    g00 = tables.from_csv(data).rows[0][2]
    assert abs(g00 - 2.0 * np.exp(-40.0)) <= 1e-15 * g00


def test_underflowed_kl_hessian_metric_exits_3():
    # there the second-slot KL stencil underflows to an all-zero g*: a
    # numerical failure, once reported as a parameter error
    argv = ["lengths", "--family", "categorical", "--k", "3", "--chart", "natural", "--start", "40,0", "--end", "39,0"]
    code, err, data = run_clean(argv)
    assert code == 3 and err.startswith("error: numerics: ") and data == b""


def test_mean_chart_fisher_metric_is_exactly_symmetric(tmp_path):
    # g = phi'' = diag(1 / eta) + 1 / eta_4: every off-diagonal entry is the
    # one value 1 / eta_4, where the pullback printed 2.5 and 2.5000000000000009
    code, data = run(["fisher", "--family", "categorical", "--k", "4", "--chart", "mean",
                      "--point", "0.1,0.2,0.3"], tmp_path)
    assert code == 0
    rows = [line.split(",") for line in data.decode().splitlines()[1:]]
    assert len({value for i, j, value in rows if i != j}) == 1


def test_quadratic_legendre_overflow_exits_3():
    # |theta|^2 = 1e600: no representable dual potential
    code, err, _ = run_clean(["legendre", "--family", "quadratic", "--theta", "1e300"])
    assert code == 3 and err.startswith("error: numerics: dual potential overflows")


def test_zero_load_membrane_has_no_convergence_order(tmp_path):
    # the manufactured solution is 0 too: its errors are 0 and give no order,
    # where the ratio of errors once raised a ZeroDivisionError
    code, data = run(MEMBRANE + ["--p", "0", "--nodes", "16", "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(data)
    assert payload["meta"]["convergence_orders"] == [None, None]
    assert not np.any(np.array(payload["rows"])[:, 1:])


def test_bregman_at_a_far_gaussian_mean_is_clean():
    # Gaussian mean coordinates keep sigma^2 only as eta2 - eta1^2: at
    # sigma = 1e-16 beside mu^2 = 640000 it rounds to 0, and phi(eta) took
    # log 0, warned and printed inf; phi from p's raw chart, -1/2 - log sigma,
    # keeps sigma, and the Bregman column is KL(p || q) = 1280035.648...
    argv = ["divergence", "--family", "gaussian", "--chart", "raw", "--p", "800,1e-16", "--q", "1e-310,0.5"]
    code, err, data = run_clean(argv)
    assert (code, err) == (0, "")
    table = tables.from_csv(data)
    row = dict(zip(table.columns, table.rows[0]))
    kl = np.log(0.5 / 1e-16) + 800.0**2 / (2.0 * 0.25) - 0.5
    assert abs(row["kl_pq"] - kl) <= 2 * np.spacing(kl)
    assert abs(row["bregman"] - kl) <= 2 * np.spacing(kl)


def test_dual_length_at_a_far_gaussian_mean_is_clean():
    # the dual length's phi'' taken at eta lost sigma^2 = eta2 - eta1^2 to
    # rounding at |mu| / sigma = 1.3e10, divided by 0 and exited 2; taken from
    # theta it needs no variance, and a path that stays at one point has
    # every length 0
    argv = ["lengths", "--family", "gaussian", "--chart", "raw", "--start=-1.77e10,1.33", "--end=-1.77e10,1.33"]
    code, err, data = run_clean(argv)
    assert (code, err) == (0, "")
    assert data == b"primal,dual,harmonic,divergence_based,grid_size\n0,0,0,0,129\n"


@pytest.mark.parametrize("start, end", [("708.5", "709.5"), ("700", "720"), ("-744", "-740")])
def test_lengths_where_bernoulli_psi_hess_is_subnormal_exit_3(start, end):
    # psi'' is positive but subnormal past |theta| = 708.4, and its inverse,
    # phi'' of the dual length and g^-1 of the harmonic one, overflows; the
    # first path once warned and printed a dual length of 0 with exit 0
    argv = ["lengths", "--family", "bernoulli", "--chart", "natural", f"--start={start}", f"--end={end}"]
    code, err, data = run_clean(argv)
    assert (code, data) == (3, b"")
    assert err.startswith("error: numerics: inverse metric overflows")


CAT_NATURAL = ["divergence", "--family", "categorical", "--chart", "natural"]


# Measured |kl_pq - bregman|: at most 5.6e-17 absolute (p = q, where the
# Bregman column rounds) and 1.5e-15 relative (k = 2); the bound allows four
# times each.
@pytest.mark.parametrize(
    "argv, kl_qp",
    [
        # q(x) = 1e-310: p(x) / q(x) overflowed in the triangle gap's
        # D(p || r), whose value, 178 nats, is finite
        (["divergence", "--family", "bernoulli", "--p", "0.25", "--q", "0.25", "--r", "1e-310"], 0.0),
        # softmax probabilities e^-800 round to 0: both KLs were inf
        (CAT_NATURAL + ["--p=800,0", "--q=-800,0"], 800.0 - np.log(2.0)),
        # found by a wider run of the fuzz test: kl_qp was inf, where
        # log-odds 2.4e16 and 2.4e166 leave one probability of p at 0
        (CAT_NATURAL + ["--k", "2", "--p=2.40220121951296e+16", "--q=3.8714396032231395"], None),
        (CAT_NATURAL + ["--k", "3", "--p=2.3766965287163454e+166,-2.2274389304087943", "--q=2.72859119321018,-0"], None),
    ],
    ids=["bernoulli-subnormal-r", "categorical-800", "categorical-k2", "categorical-k3"],
)
def test_discrete_kl_finite_where_a_probability_underflows(argv, kl_qp):
    code, err, data = run_clean(argv)
    assert code == 0 and err == ""
    table = tables.from_csv(data)
    row = dict(zip(table.columns, table.rows[0]))
    assert np.isfinite(table.rows).all()
    assert abs(row["kl_pq"] - row["bregman"]) <= 2.5e-16 + 6e-15 * abs(row["bregman"])
    if kl_qp is not None:
        assert abs(row["kl_qp"] - kl_qp) <= 2 * np.spacing(kl_qp)


@pytest.mark.parametrize(
    "argv, code",
    [
        # the cap's colatitude grid once overflowed in linspace
        (["berry", "--theta-c", "1.7976931348623157e308", "--segments", "12", "--surface-nu", "3", "--surface-nv", "2"], 2),
        (["berry", "--theta-c=-0.1"], 2),
        (["berry", "--theta-c", "180.0001", "--deg"], 2),
        (["berry", "--theta-c", "0", "--segments", "8", "--surface-nu", "2", "--surface-nv", "2"], 0),
        (["berry", "--theta-c", "180", "--deg", "--segments", "8", "--surface-nu", "2", "--surface-nv", "2"], 0),
    ],
)
def test_colatitude_bounded_to_0_pi(argv, code):
    got, err, _ = run_clean(argv)
    assert got == code
    assert code == 0 or err.startswith("error: theta-c: must lie in [0.0, 3.141592653589793]")


def test_categorical_log_odds_spread_beyond_largest_double_exits_2():
    # the spread 2e308, the last outcome's 0 included, overflowed in softmax
    # and logsumexp, and kl_pq read inf with exit 0
    code, err, data = run_clean(CAT_NATURAL + ["--k", "3", "--p=0,0", "--q=1e308,-1e308"])
    assert (code, data) == (2, b"")
    assert err.startswith("error: parameters: log-odds spread")


def fresh_interpreter(code):
    """stdout lines of code run in a new interpreter that imports this
    checkout's dualgeo: the suite itself has loaded scipy."""
    src = str(Path(dualgeo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return out.stdout.split("\n")


def test_import_loads_no_scipy_module():
    lines = fresh_interpreter(
        "import sys, dualgeo.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]); "
        "print(callable(dualgeo.chsh.minimize))"
    )
    assert lines[:2] == ["[]", "True"]


def test_string_loads_scipy_special_when_called():
    # the elliptic integral of string_arc_length_exact is the one scipy
    # function a CLI path needs, imported when called
    lines = fresh_interpreter(
        "import sys, dualgeo.cli; "
        "before = 'scipy.special' in sys.modules; "
        "code = dualgeo.cli.main(['string', '--A', '1', '--fs', '1', '--x', '1.5707963267948966']); "
        "print(before, code, 'scipy.special' in sys.modules)"
    )
    assert lines[-2] == "False 0 True"


def test_membrane_convergence_order_overflow_exits_3():
    # the solve is finite, but r^4 of the manufactured quartic's reference overflows
    code, err, _ = run_clean(["membrane", "--T", "3.5e77", "--p", "0", "--R", "3.5e77", "--nodes", "31"])
    assert code == 3 and err.startswith("error: numerics: membrane convergence order overflowed")
