"""Arc-length functionals and geodesics."""
import numpy as np
import pytest

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
from dualgeo import geometry as G
from dualgeo import lengths as L
from dualgeo.errors import NonConvergenceError

RNG = np.random.default_rng(20240819)


def bernoulli_fisher_length(a, b):
    """Closed-form Fisher length of the mean-chart segment [a, b]."""
    return 2.0 * abs(np.arcsin(np.sqrt(b)) - np.arcsin(np.sqrt(a)))


def gaussian_fisher_distance(a, b):
    """Fisher-Rao distance between (mu, sigma) pairs (Atkinson & Mitchell 1981)."""
    (m1, s1), (m2, s2) = a, b
    return np.sqrt(2.0) * np.arccosh(1.0 + ((m1 - m2) ** 2 / 2.0 + (s1 - s2) ** 2) / (2.0 * s1 * s2))


def categorical_fisher_distance(p, q):
    """Fisher-Rao distance between mean-chart points: twice the Bhattacharyya angle."""
    p = np.append(p, 1.0 - np.sum(p))
    q = np.append(q, 1.0 - np.sum(q))
    return 2.0 * np.arccos(np.sum(np.sqrt(p * q)))


def divergence_length_curvature(path, family):
    """Alternate estimator of the divergence-based length from the second
    parameter-derivative, at coincidence, of the symmetrized divergence
    D(x||y) + D(y||x) along the path."""
    vel = np.gradient(path.samples, path.ts, axis=0)
    integrand = np.empty(path.count)
    for k in range(path.count):
        u = path.samples[k]
        v = vel[k]
        h = 1e-4 / max(1.0, float(np.linalg.norm(v)))

        def sym(s):
            x = ParameterPoint(path.chart, u + s * v)
            y = ParameterPoint(path.chart, u)
            return family.kl(x, y) + family.kl(y, x)

        second = (sym(h) - 2.0 * sym(0.0) + sym(-h)) / h**2
        integrand[k] = np.sqrt(max(second, 0.0))
    return float(np.trapezoid(integrand, path.ts))


# -- paths --------------------------------------------------------------


def test_straight_path_endpoints():
    path = L.ParamPath.straight(MEAN, [0.2], [0.8], 33)
    assert path.count == 33
    assert np.allclose(path.samples[0], [0.2])
    assert np.allclose(path.samples[-1], [0.8])


def test_path_needs_two_samples():
    with pytest.raises(ValueError):
        L.ParamPath(MEAN, np.array([[0.5]]))


def test_path_refinement_keeps_curve():
    path = L.ParamPath.straight(MEAN, [0.1, 0.2], [0.5, 0.9], 9)
    fine = path.refined(4)
    assert fine.count == 33
    assert np.allclose(fine.samples[0], path.samples[0])
    assert np.allclose(fine.samples[-1], path.samples[-1])


def test_path_length_euclidean_is_chord():
    path = L.ParamPath.straight("flat", [0.0, 0.0], [3.0, 4.0], 65)
    length = L.path_length(path, lambda c: np.eye(2))
    assert abs(length - 5.0) < 1e-10


# -- length functionals -------------------------------------------------


def test_primal_length_bernoulli_closed_form():
    path = L.ParamPath.straight(MEAN, [0.2], [0.8], 257)
    length = L.primal_length(path, Bernoulli())
    assert abs(length - bernoulli_fisher_length(0.2, 0.8)) < 1e-5


def test_dual_length_equals_primal_of_image():
    # the grad-psi image under g* has the same length as the theta path under g
    fam = Bernoulli()
    pot = G.PotentialPair.from_family(fam)
    path = L.ParamPath.straight(NATURAL, [-1.0], [1.2], 129)
    dual = L.dual_length(path, pot)
    image = np.stack([pot.grad_psi(c) for c in path.samples])
    primal_of_image = L.primal_length(L.ParamPath(MEAN, image, path.ts), fam)
    assert abs(dual - primal_of_image) < 1e-10


def test_potential_length_matches_primal_in_natural_chart():
    fam = Gaussian1D()
    pot = G.PotentialPair.from_family(fam)
    path = L.ParamPath.straight(NATURAL, [0.0, -0.5], [0.5, -0.8], 65)
    assert abs(L.potential_length(path, pot) - L.primal_length(path, fam)) < 1e-8


def test_divergence_length_is_sqrt2_primal():
    # KL Hessians give g in both slots, so g + g* doubles the quadratic form
    fam = Bernoulli()
    path = L.ParamPath.straight(MEAN, [0.25], [0.7], 65)
    ld = L.divergence_length(path, fam)
    lp = L.primal_length(path, fam)
    assert abs(ld - np.sqrt(2.0) * lp) < 1e-6


def test_divergence_curvature_estimator_agrees():
    fam = Bernoulli()
    path = L.ParamPath.straight(MEAN, [0.25], [0.7], 65)
    ld = L.divergence_length(path, fam)
    lc = divergence_length_curvature(path, fam)
    assert abs(ld - lc) < 1e-5


def test_harmonic_length_between_min_and_max():
    fam = Bernoulli()
    g_field = G.metric_field(fam, MEAN)

    def g_star_field(coords):
        _, g_star = G.divergence_hessians(fam, point(MEAN, *coords))
        return g_star

    path = L.ParamPath.straight(MEAN, [0.2], [0.75], 33)
    lg = L.path_length(path, g_field)
    lgs = L.path_length(path, g_star_field)
    lh = L.harmonic_length(path, g_field, g_star_field)
    assert min(lg, lgs) - 1e-9 <= lh <= max(lg, lgs) + 1e-9


def test_harmonic_of_equal_metrics_is_identity():
    field = lambda c: np.diag([2.0, 3.0])
    path = L.ParamPath.straight("flat", [0.0, 0.0], [1.0, 1.0], 33)
    assert abs(L.harmonic_length(path, field, field) - L.path_length(path, field)) < 1e-12


def test_length_report_consistency():
    fam = Bernoulli()
    path = L.ParamPath.straight(MEAN, [0.3], [0.6], 33)
    rep = L.length_report(path, fam)
    assert rep.grid_size == 33
    assert abs(rep.primal - L.primal_length(path, fam)) < 1e-12
    assert abs(rep.divergence_based - np.sqrt(2.0) * rep.primal) < 1e-6
    assert min(rep.primal, rep.dual) <= rep.harmonic + 1e-9


@pytest.mark.parametrize(
    "fam, chart, a, b",
    [
        (Bernoulli(), MEAN, [0.2], [0.75]),
        (Bernoulli(), NATURAL, [-1.0], [1.5]),
        (Categorical(3), MEAN, [0.2, 0.5], [0.5, 0.3]),
        (Categorical(4), NATURAL, [0.3, -0.2, 0.5], [-0.4, 0.1, 0.2]),
        (Gaussian1D(), RAW, [0.0, 1.0], [1.0, 2.0]),
        (Gaussian1D(), NATURAL, [0.5, -0.5], [-0.3, -1.2]),
        (Gaussian1D(), MEAN, [0.0, 1.0], [0.5, 2.0]),
    ],
)
def test_length_report_matches_per_point_functionals(fam, chart, a, b):
    # the one-pass report against each functional built from per-point fields
    path = L.ParamPath.straight(chart, a, b, 33)
    rep = L.length_report(path, fam)
    pot = G.PotentialPair.from_family(fam)
    theta = np.stack([fam.convert(point(chart, *c), NATURAL).coords for c in path.samples])

    def g_star_field(coords):
        return G.divergence_hessians(fam, ParameterPoint(chart, coords))[1]

    oracles = {
        "primal": L.path_length(path, G.metric_field(fam, chart)),
        "dual": L.dual_length(L.ParamPath(NATURAL, theta, path.ts), pot),
        "harmonic": L.harmonic_length(path, G.metric_field(fam, chart), g_star_field),
        "divergence_based": L.path_length(path, lambda c: sum(G.divergence_hessians(fam, ParameterPoint(chart, c)))),
    }
    for name, oracle in oracles.items():
        assert abs(getattr(rep, name) - oracle) <= 1e-14 * oracle, name


# -- geodesics ----------------------------------------------------------


def test_e_geodesic_straight_in_natural_chart():
    fam = Bernoulli()
    path = L.geodesic(fam, NATURAL, point(MEAN, 0.2), point(MEAN, 0.8), alpha=1)
    # straight: second differences vanish
    assert np.max(np.abs(np.diff(path.samples, n=2, axis=0))) < 1e-10


def test_m_geodesic_straight_in_mean_chart():
    fam = Gaussian1D()
    a, b = point(RAW, 0.0, 1.0), point(RAW, 1.0, 1.5)
    path = L.geodesic(fam, MEAN, a, b, alpha=-1)
    assert np.max(np.abs(np.diff(path.samples, n=2, axis=0))) < 1e-8


def test_geodesic_endpoints():
    fam = Bernoulli()
    a, b = point(MEAN, 0.2), point(MEAN, 0.8)
    for alpha in (-1, 0, 1):
        path = L.geodesic(fam, MEAN, a, b, alpha, count=65, steps=64)
        assert np.max(np.abs(path.samples[0] - a.coords)) < 1e-9
        assert np.max(np.abs(path.samples[-1] - b.coords)) < 1e-5


# The length error is the O(h^2) of the trapezoid-and-gradient length
# quadrature.  Measured errors: Bernoulli 8.4e-7 at 256 steps, Gaussian
# 1.82e-5, Categorical(3) 8.2e-6 and Categorical(16) 1.07e-6 at 64 steps; the
# bounds are about twice these.
@pytest.mark.parametrize(
    "fam, chart, a, b, steps, oracle, tol",
    [
        pytest.param(Bernoulli(), MEAN, [0.3], [0.7], 256,
                     lambda a, b: bernoulli_fisher_length(a[0], b[0]), 1e-5, id="bernoulli-mean"),
        pytest.param(Gaussian1D(), RAW, [0.0, 1.0], [1.0, 2.0], 64,
                     gaussian_fisher_distance, 4e-5, id="gaussian-raw"),
        pytest.param(Categorical(3), MEAN, [0.2, 0.5], [0.5, 0.3], 64,
                     categorical_fisher_distance, 2e-5, id="categorical3-mean"),
        # from the uniform point, two weights moved by +-0.5 / 16
        pytest.param(Categorical(16), MEAN, [1 / 16] * 15, [1.5 / 16, 0.5 / 16] + [1 / 16] * 13, 64,
                     categorical_fisher_distance, 2e-6, id="categorical16-mean"),
    ],
)
def test_fisher_geodesic_closed_form_distance(fam, chart, a, b, steps, oracle, tol):
    path = L.geodesic(fam, chart, point(chart, *a), point(chart, *b), alpha=0,
                      count=steps + 1, steps=steps)
    length = L.primal_length(path, fam)
    assert abs(length - oracle(a, b)) < tol


def test_geodesic_shooting_failure_reports_miss_and_integrations():
    # log-odds -30 -> 30: the needed initial speed (~1e7) overflows the
    # trial shots, a numerical failure rather than a bad parameter
    with pytest.raises(NonConvergenceError, match=r"in integration \d+, last miss \d"):
        L.geodesic(Bernoulli(), NATURAL, point(NATURAL, -30.0), point(NATURAL, 30.0), alpha=0)


def test_geodesic_shooting_integrates_each_trial_with_its_perturbations(monkeypatch):
    # one spray call per RK4 stage, on the trial and its d perturbations
    calls = []

    def counted(family, pt, v, alpha):
        calls.append(pt.coords.shape)
        return G.geodesic_spray(family, pt, v, alpha)

    monkeypatch.setattr(L, "geodesic_spray", counted)
    steps = 16
    for fam, chart, a, b in [
        (Bernoulli(), MEAN, [0.2], [0.8]),
        (Categorical(3), MEAN, [0.2, 0.5], [0.5, 0.3]),
        (Gaussian1D(), RAW, [0.0, 1.0], [1.0, 2.0]),
    ]:
        calls.clear()
        L.geodesic(fam, chart, point(chart, *a), point(chart, *b), alpha=0, count=steps + 1, steps=steps)
        d = fam.dim
        assert set(calls) == {(d + 1, d)}
        iterations, rest = divmod(len(calls), 4 * steps)
        assert rest == 0 and 2 <= iterations <= 6


def test_geodesic_rejects_bad_alpha():
    fam = Bernoulli()
    with pytest.raises(ValueError):
        L.geodesic(fam, MEAN, point(MEAN, 0.2), point(MEAN, 0.8), alpha=2)


def test_geodesic_alpha_sign_convention():
    # e- and m-geodesics between the same endpoints differ in a curved family
    fam = Bernoulli()
    a, b = point(MEAN, 0.1), point(MEAN, 0.6)
    pe = L.geodesic(fam, MEAN, a, b, alpha=1, count=65)
    pm = L.geodesic(fam, MEAN, a, b, alpha=-1, count=65)
    assert np.max(np.abs(pe.samples - pm.samples)) > 1e-3
