"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail line
to the terminal in addition to the usual pytest verdict.
"""
import json

import numpy as np
import pytest
from scipy.special import ellipe

from dualgeo import berry as B
from dualgeo import chsh as C
from dualgeo import cli
from dualgeo import continuum as K
from dualgeo import geometry as G
from dualgeo import lengths as L
from dualgeo import quantum as Q
from dualgeo.distributions import (
    MEAN,
    NATURAL,
    RAW,
    Bernoulli,
    Categorical,
    Gaussian1D,
    ParameterPoint,
    point,
)
from dualgeo.geometry import RotationMap
from dualgeo.quantum import BipartiteState

from test_cli import INVOCATIONS

RNG = np.random.default_rng(12345)


@pytest.fixture
def report(capsys):
    def _report(number, label, ok):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
        assert ok, f"criterion {number}: {label}"

    return _report


def test_criterion_01_tsirelson_bound(report, tmp_path):
    out = tmp_path / "scan.json"
    code = cli.main(
        ["chsh", "--state", "singlet", "--scan", "24", "--format", "json", "--output", str(out)]
    )
    payload = json.loads(out.read_bytes())
    scan_ok = code == 0 and abs(payload["meta"]["max_abs_S"] - 2.0 * np.sqrt(2.0)) <= 1e-6
    poly = C.classical_polytope_max()
    poly_ok = poly.max_value == 2.0 and poly.min_value == -2.0
    report(1, "max |S| = 2*sqrt(2) within 1e-6; classical polytope max = 2", scan_ok and poly_ok)


def test_criterion_02_geometric_correlator_identity(report):
    worst = 0.0
    for _ in range(10_000):
        a = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        st = BipartiteState(a / np.linalg.norm(a))
        d = C.joint_distribution(
            st,
            C.MeasurementSetting(RNG.uniform(0.0, 2.0 * np.pi)),
            C.MeasurementSetting(RNG.uniform(0.0, 2.0 * np.pi), C.BOB),
        )
        worst = max(worst, abs(C.correlator(d) - C.geometric_correlator(d)))
    report(2, f"geometric correlator = correlator on 1e4 random cases (worst {worst:.2e})", worst <= 1e-12)


def test_criterion_03_berry_holonomy(report):
    fam = B.spin_half()
    loop_ok = True
    stokes_ok = True
    for theta_c in (np.pi / 6, np.pi / 3, np.pi / 2, 2.0 * np.pi / 3.0):
        gamma = B.berry_phase_loop(fam, B.latitude_loop(theta_c, 2000), unwrapped=True)
        oracle = -np.pi * (1.0 - np.cos(theta_c))
        loop_ok &= abs(gamma - oracle) <= 1e-4
        flux = B.berry_phase_surface(fam, B.polar_cap(theta_c, 64, 128))
        stokes_ok &= abs(flux - gamma) <= 1e-3
    report(3, "latitude-loop phases match -pi(1-cos theta_c); Stokes agreement", loop_ok and stokes_ok)


def test_criterion_04_dual_affine_core(report):
    families = {
        "bernoulli": (Bernoulli(), [np.array([-1.2]), np.array([0.0]), np.array([0.9])]),
        "categorical": (Categorical(3), [np.array([0.3, -0.4]), np.array([-0.1, 0.6])]),
        "gaussian": (Gaussian1D(), [np.array([0.5, -0.5]), np.array([-1.0, -0.2])]),
    }
    round_trip = bregman = product = flat = 0.0
    for fam, thetas in families.values():
        for theta in thetas:
            eta = fam.grad_potential(theta)
            round_trip = max(round_trip, np.max(np.abs(fam.grad_dual_potential(eta) - theta)))
            g, g_star = G.dual_metrics(fam, ParameterPoint(NATURAL, theta))
            product = max(
                product,
                np.max(np.abs(g.components @ g_star.components - np.eye(theta.size))),
            )
            flat = max(
                flat,
                np.max(np.abs(G.christoffel(fam, ParameterPoint(NATURAL, theta), 1.0).components)),
                np.max(np.abs(G.christoffel(fam, ParameterPoint(MEAN, eta), -1.0).components)),
            )
        for theta_p in thetas:
            for theta_q in thetas:
                p = ParameterPoint(NATURAL, theta_p)
                q = ParameterPoint(NATURAL, theta_q)
                breg = G.bregman_divergence(fam, q, ParameterPoint(MEAN, fam.grad_potential(theta_p)))
                bregman = max(bregman, abs(breg - fam.kl(p, q)))
    # Pythagorean triples: orthogonal construction and a generic one
    fam = Gaussian1D()
    theta_r = np.array([0.0, -0.5])
    eta_r = fam.grad_potential(theta_r)
    u = np.array([0.2, -0.1])
    v = np.array([0.1, 0.2])  # <u, v> = 0
    gap = G.pythagorean_gap(
        fam,
        fam.convert(ParameterPoint(MEAN, eta_r + v), RAW),
        fam.convert(ParameterPoint(NATURAL, theta_r), RAW),
        fam.convert(ParameterPoint(NATURAL, theta_r + u), RAW),
    )
    generic = G.pythagorean_gap(
        Bernoulli(), point(MEAN, 0.2), point(MEAN, 0.7), point(MEAN, 0.4)
    )
    ok = (
        round_trip <= 1e-8
        and bregman <= 1e-8
        and product <= 1e-6
        and flat <= 1e-6
        and abs(gap) <= 1e-8
        and abs(generic) > 1e-6
    )
    report(
        4,
        "Legendre round trip, Bregman = KL, g g* = I, e/m flatness, Pythagorean gap",
        ok,
    )


def test_criterion_05_pinning_blow_up(report):
    fam = Gaussian1D()
    ok = True
    for sigma in (1.0, 0.1, 0.01):
        g = G.fisher_metric(fam, point(RAW, 0.0, sigma)).components
        ok &= abs(g[1, 1] - 2.0 / sigma**2) / (2.0 / sigma**2) <= 1e-6
    report(5, "Gaussian g_sigma_sigma = 2 / sigma^2 at sigma in {1, 0.1, 0.01}", ok)


def test_criterion_06_lengths(report):
    fam = Bernoulli()
    geo = L.geodesic(fam, MEAN, point(MEAN, 0.2), point(MEAN, 0.8), 0, count=513, steps=512)
    length = L.primal_length(geo, fam)
    oracle = 2.0 * abs(np.arcsin(np.sqrt(0.8)) - np.arcsin(np.sqrt(0.2)))
    geodesic_ok = abs(length - oracle) <= 1e-5

    path = L.ParamPath.straight(MEAN, [0.25], [0.7], 65)
    ld = L.length_report(path, fam).divergence_based
    lp = L.primal_length(path, fam)
    sqrt2_ok = abs(ld / np.sqrt(2.0) - lp) <= 1e-6

    def harmonic_bounded(family, p):
        # the Fisher metric and the KL Hessian g* as whole-path arrays
        g = G.fisher_metric(family, p.batch()).components
        g_star = G.divergence_hessians(family, p.batch())[1]
        lg, lgs = L.path_length(p, g), L.path_length(p, g_star)
        lh = L.harmonic_length(p, g, g_star)
        return min(lg, lgs) - 1e-9 <= lh <= max(lg, lgs) + 1e-9

    harmonic_ok = True
    for _ in range(60):
        a, b = np.sort(RNG.uniform(0.05, 0.95, size=2))
        harmonic_ok &= harmonic_bounded(fam, L.ParamPath.straight(MEAN, [a], [b + 1e-3], 17))
    gauss = Gaussian1D()
    for _ in range(40):
        mu = RNG.uniform(-1.0, 1.0, size=2)
        sg = RNG.uniform(0.5, 2.0, size=2)
        harmonic_ok &= harmonic_bounded(gauss, L.ParamPath.straight(RAW, [mu[0], sg[0]], [mu[1], sg[1]], 9))
    report(
        6,
        "geodesic distance closed form; L_D / sqrt(2) = primal; harmonic bounds",
        geodesic_ok and sqrt2_ok and harmonic_ok,
    )


def test_criterion_07_entanglement_generation(report):
    bench = BipartiteState(np.array([[1.0, 0.0], [1.0, 0.0]]) / np.sqrt(2.0))

    def entropy(theta):
        rotated = Q.rotate_subsystem_controlled(bench, RotationMap(2, theta))
        return Q.entanglement_entropy(Q.schmidt(rotated))

    ends_ok = entropy(0.0) <= 1e-10 and abs(entropy(np.pi / 2.0) - np.log(2.0)) <= 1e-10
    grid = np.linspace(0.0, np.pi / 2.0, 100)
    values = np.array([entropy(t) for t in grid])
    monotone_ok = np.all(np.diff(values) >= -1e-12)
    local_ok = True
    for _ in range(20):
        a = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        st = BipartiteState(a / np.linalg.norm(a))
        before = Q.schmidt(st).coefficients
        after = Q.schmidt(Q.rotate_subsystem_local(st, RotationMap(2, RNG.uniform(0, np.pi)))).coefficients
        local_ok &= np.max(np.abs(before - after)) <= 1e-10
    report(
        7,
        "controlled rotation: S(0) = 0, S(pi/2) = log 2, monotone; local rotation inert",
        ends_ok and monotone_ok and local_ok,
    )


def test_criterion_08_ec_conservation(report):
    ok = True
    for _ in range(1000):
        theta = RNG.uniform(-20.0, 20.0)
        n = RNG.uniform(0.05, 10.0)
        e, c = Q.ec_decomposition(theta, n)
        ok &= (e + c) == n
    report(8, "E + C = N bit-exactly on 1e3 random (theta, N) pairs", ok)


def test_criterion_09_membrane(report):
    prob = K.MembraneProblem(1.0, 1.0, 1.0, 512)
    err_ok = K.membrane_max_error(prob) <= 1e-5
    orders = K.membrane_convergence_order(prob)
    order_ok = all(o >= 1.9 for o in orders)
    report(9, f"membrane FD error <= 1e-5 at 512 nodes; orders {np.round(orders, 3)}", err_ok and order_ok)


def test_criterion_10_string_model(report, capsys):
    model = K.StringModel(1.0, (1.0,))
    exact = K.string_arc_length_exact(model, np.pi / 2.0)
    oracle = np.sqrt(2.0) * ellipe(0.5)
    arc_ok = abs(exact - oracle) <= 1e-6 and abs(oracle - 1.91010) < 5e-6
    rep = K.string_length_report(model, np.pi / 2.0)
    with capsys.disabled():
        print(
            f"       string approximation discrepancy: {rep.discrepancy:.6f} "
            f"(relative {rep.relative_discrepancy:.4f})"
        )
    inv_ok = True
    for x in np.linspace(1e-6, np.pi / 2.0, 200):
        l = K.string_effective_length(model, x)
        inv_ok &= abs(np.arcsin(l) / model.total_frequency - x) <= 1e-12
    report(10, "arc length = 1.91010 elliptic oracle; inversion exact", arc_ok and inv_ok)


def test_criterion_11_cli_determinism(report, tmp_path):
    ok = True
    for name, argv in sorted(INVOCATIONS.items()):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.dat"
            code = cli.main(argv + ["--output", str(out)])
            ok &= code == 0
            outs.append(out.read_bytes())
        ok &= outs[0] == outs[1]
    report(11, "every documented subcommand invocation is byte-identical across runs", ok)
