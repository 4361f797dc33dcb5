"""Fisher metrics, Legendre duality, divergences, and connections."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualgeo.distributions import (
    MEAN,
    NATURAL,
    RAW,
    Bernoulli,
    Categorical,
    Gaussian1D,
    InvalidParameterError,
    ParameterPoint,
    point,
)
from dualgeo import geometry as G
from dualgeo import lengths as L

RNG = np.random.default_rng(20240818)

# One interior point per family and chart.
CHART_POINTS = [
    (Bernoulli(), point(MEAN, 0.3)),
    (Bernoulli(), point(NATURAL, -0.8)),
    (Categorical(3), point(MEAN, 0.2, 0.5)),
    (Categorical(3), point(NATURAL, 0.3, -0.4)),
    (Categorical(4), point(MEAN, 0.1, 0.2, 0.3)),
    (Categorical(4), point(NATURAL, 0.3, -0.2, 0.5)),
    (Gaussian1D(), point(RAW, 0.4, 1.3)),
    (Gaussian1D(), point(NATURAL, 0.7, -0.4)),
    (Gaussian1D(), point(MEAN, 0.2, 1.1)),
]
CHART_IDS = [f"{type(f).__name__}{f.dim}-{p.chart}" for f, p in CHART_POINTS]


# -- quadrature oracles -------------------------------------------------
# Score-moment definitions of the metric and the connections, evaluated by
# each family's expectation (exact sums, or Gauss-Hermite quadrature that is
# exact for the Gaussian's polynomial integrands).  The second derivative of
# the chart map comes from extrapolated central differences of the analytic
# Jacobian, so the oracle shares no term with the closed forms but psi''.


def ridders(diff, h, shrink=2.0, levels=14):
    """Ridders' extrapolation of diff(h) to h -> 0: the tableau entry with the
    smallest error estimate (Press et al., Numerical Recipes, section 5.7)."""
    prev = [diff(h)]
    best, err = prev[0], np.inf
    for _ in range(1, levels):
        h /= shrink
        row = [diff(h)]
        f = shrink**2
        for m in range(1, len(prev) + 1):
            row.append((f * row[m - 1] - prev[m - 1]) / (f - 1.0))
            f *= shrink**2
            e = max(np.max(np.abs(row[m] - row[m - 1])), np.max(np.abs(row[m] - prev[m - 1])))
            if e <= err:
                best, err = row[m], e
        if np.max(np.abs(row[-1] - prev[-1])) >= 2.0 * err:
            break
        prev = row
    return best


def fd_natural_hessian(fam, pt):
    """H[a, i, j] = d^2 theta_a / d u_i d u_j by differences of the Jacobian."""
    u = pt.coords
    d = u.size

    def jac(v):
        return fam._natural_jacobian(ParameterPoint(pt.chart, v))

    def inside(v):
        try:
            fam.validate(ParameterPoint(pt.chart, v))
        except InvalidParameterError:
            return False
        return True

    cols = []
    for j in range(d):
        e = np.eye(d)[j]
        # first step well inside the chart's domain, so the tableau starts smooth
        h = 0.1 * (abs(u[j]) or 1.0)
        while not (inside(u + 8.0 * h * e) and inside(u - 8.0 * h * e)):
            h /= 2.0
        cols.append(ridders(lambda h: (jac(u + h * e) - jac(u - h * e)) / (2.0 * h), h))
    return np.stack(cols, axis=-1)


def oracle_fisher(fam, pt):
    """E[score score^T]."""
    return fam.expect(pt, lambda x: np.outer(fam.score(pt, x), fam.score(pt, x)))


def oracle_connection_moments(fam, pt):
    """E[l_ij l_k] and E[l_i l_j l_k]; Gamma^(alpha)_{ij,k} = first + (1-alpha)/2 second."""
    theta = fam.convert(pt, NATURAL).coords
    jac = fam._natural_jacobian(pt)
    hess = fd_natural_hessian(fam, pt)
    l2_natural = -jac.T @ fam.hess_potential(theta) @ jac

    def moments(x):
        s = fam._score_natural(theta, x)
        l1 = jac.T @ s
        l2 = l2_natural + np.einsum("aij,a->ij", hess, s)
        return np.stack([l2[:, :, None] * l1, np.einsum("i,j,k->ijk", l1, l1, l1)])

    return fam.expect(pt, moments)


# -- Fisher metrics -----------------------------------------------------


def test_bernoulli_fisher_mean_chart():
    g = G.fisher_metric(Bernoulli(), point(MEAN, 0.3))
    assert abs(g.components[0, 0] - 1.0 / (0.3 * 0.7)) < 1e-12


def test_bernoulli_fisher_natural_chart():
    fam = Bernoulli()
    pt = fam.convert(point(MEAN, 0.3), NATURAL)
    g = G.fisher_metric(fam, pt)
    assert abs(g.components[0, 0] - 0.3 * 0.7) < 1e-12


def test_gaussian_fisher_raw_chart():
    for mu, sigma in ((0.0, 1.0), (1.5, 0.4)):
        g = G.fisher_metric(Gaussian1D(), point(RAW, mu, sigma)).components
        oracle = np.diag([1.0 / sigma**2, 2.0 / sigma**2])
        assert np.max(np.abs(g - oracle)) < 1e-8 / sigma**2


def test_fisher_equals_potential_hessian_in_natural_chart():
    for fam, theta in (
        (Bernoulli(), np.array([0.4])),
        (Categorical(3), np.array([0.2, -0.5])),
        (Gaussian1D(), np.array([1.0, -0.7])),
    ):
        pt = ParameterPoint(NATURAL, theta)
        g = G.fisher_metric(fam, pt).components
        assert np.max(np.abs(g - fam.hess_potential(theta))) < 1e-8


def test_fisher_equals_dual_hessian_inverse_in_mean_chart():
    fam = Categorical(3)
    pt = ParameterPoint(MEAN, np.array([0.25, 0.35]))
    g = G.fisher_metric(fam, pt).components
    assert np.max(np.abs(g - fam.hess_dual_potential(pt.coords))) < 1e-12


def test_metric_tensor_requires_symmetry():
    with pytest.raises(G.DegenerateMetricError):
        G.MetricTensor(MEAN, point(MEAN, 0.5), np.array([[1.0, 0.2], [0.1, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metric_tensor_requires_finite_components(bad):
    with pytest.raises(G.DegenerateMetricError, match="finite"):
        G.MetricTensor(MEAN, point(MEAN, 0.5), np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(G.DegenerateMetricError, match="finite"):
        G.MetricTensor(MEAN, point(MEAN, 0.5), np.array([[1.0, bad], [bad, 1.0]]))


def test_metric_tensor_symmetry_tolerance():
    # |c - c^T| <= 1e-12 + 1e-5 |c^T| elementwise, as np.allclose(c, c.T, atol=1e-12)
    G.MetricTensor(MEAN, point(MEAN, 0.5), np.array([[1.0, 1e3 + 5e-3], [1e3, 1.0]]))
    with pytest.raises(G.DegenerateMetricError, match="symmetric"):
        G.MetricTensor(MEAN, point(MEAN, 0.5), np.array([[1.0, 1e3 + 2e-2], [1e3, 1.0]]))


# -- Legendre duality ---------------------------------------------------


def test_legendre_dual_gaussian():
    fam = Gaussian1D()
    theta = ParameterPoint(NATURAL, np.array([1.0, -0.5]))
    eta, phi = G.legendre_dual(fam, theta)
    assert eta.chart == MEAN
    assert np.allclose(eta.coords, [1.0, 2.0])
    assert abs(phi - fam.dual_potential(eta.coords)) < 1e-12


def test_legendre_quadratic_self_dual():
    theta = ParameterPoint(NATURAL, np.array([1.0, -2.0, 0.5]))
    eta, phi = G.legendre_dual(G.QuadraticPotential(3), theta)
    assert np.allclose(eta.coords, theta.coords)
    assert abs(phi - 0.5 * np.dot(theta.coords, theta.coords)) < 1e-15


def test_legendre_chart_mismatch():
    with pytest.raises(G.ChartError):
        G.legendre_dual(Bernoulli(), point(MEAN, 0.5))


# -- Bregman / KL -------------------------------------------------------


def test_bregman_equals_kl():
    fam = Gaussian1D()
    p = point(RAW, 0.0, 1.0)
    q = point(RAW, 0.8, 1.5)
    theta_q = fam.convert(q, NATURAL)
    eta_p = fam.convert(p, MEAN)
    breg = G.bregman_divergence(fam, theta_q, eta_p)
    assert abs(breg - fam.kl(p, q)) < 1e-12


def test_bregman_zero_iff_dual_pair():
    fam = Bernoulli()
    theta = ParameterPoint(NATURAL, np.array([0.9]))
    eta = ParameterPoint(MEAN, fam.grad_potential(theta.coords))
    assert abs(G.bregman_divergence(fam, theta, eta)) < 1e-14
    other = ParameterPoint(MEAN, np.array([0.2]))
    assert G.bregman_divergence(fam, theta, other) > 1e-3


def test_pythagorean_gap_orthogonal_triple_gaussian():
    fam = Gaussian1D()
    theta_r = np.array([0.0, -0.5])
    eta_r = fam.grad_potential(theta_r)
    u = np.array([0.2, -0.1])  # e-direction in the natural chart
    v = np.array([0.1, 0.2])  # m-direction in the mean chart; <v, u> = 0
    assert abs(np.dot(u, v)) < 1e-15
    p = ParameterPoint(MEAN, eta_r + v)
    r = ParameterPoint(NATURAL, theta_r)
    q = ParameterPoint(NATURAL, theta_r + u)
    gap = G.pythagorean_gap(fam, fam.convert(p, RAW), fam.convert(r, RAW), fam.convert(q, RAW))
    assert abs(gap) < 1e-10


def test_pythagorean_gap_nonzero_generically():
    fam = Bernoulli()
    gap = G.pythagorean_gap(fam, point(MEAN, 0.2), point(MEAN, 0.7), point(MEAN, 0.4))
    assert abs(gap) > 1e-4


def test_dual_metrics_product_identity():
    for fam, theta in (
        (Bernoulli(), np.array([0.6])),
        (Categorical(4), np.array([0.3, -0.2, 0.5])),
        (Gaussian1D(), np.array([0.5, -0.8])),
    ):
        g, g_star = G.dual_metrics(fam, ParameterPoint(NATURAL, theta))
        prod = g.components @ g_star.components
        assert np.max(np.abs(prod - np.eye(prod.shape[0]))) < 1e-9


# -- Connections --------------------------------------------------------


def check_against_oracles(fam, pt):
    """Metric, lower- and upper-index connections against the quadrature
    oracles, to 1e-10 relative to the larger of the tensors compared."""
    g = oracle_fisher(fam, pt)
    assert np.max(np.abs(G.fisher_metric(fam, pt).components - g)) <= 1e-10 * np.max(np.abs(g))
    bend, skew = oracle_connection_moments(fam, pt)
    scale = max(np.max(np.abs(bend)), np.max(np.abs(skew)))
    for alpha in (-1.0, 0.0, 0.4, 1.0):
        oracle = bend + 0.5 * (1.0 - alpha) * skew
        lower = G.christoffel_first_kind(fam, pt, alpha)
        assert np.max(np.abs(lower - oracle)) <= 1e-10 * scale, alpha
        upper = G.christoffel(fam, pt, alpha).components
        assert np.max(np.abs(np.einsum("il,ijk->jkl", g, upper) - oracle)) <= 1e-10 * scale, alpha


@pytest.mark.parametrize("fam, pt", CHART_POINTS, ids=CHART_IDS)
def test_closed_forms_match_quadrature_oracles(fam, pt):
    check_against_oracles(fam, pt)


def random_chart_points(count):
    """Interior points over wide ranges: Bernoulli means in [0.02, 0.98],
    Categorical weights U(0.05, 1) normalised, Gaussian mu in [-3, 3] and
    sigma in [0.2, 4]; each in every chart of its family."""
    out = []
    for _ in range(count):
        eta = RNG.uniform(0.02, 0.98)
        out.append((Bernoulli(), point(MEAN, eta)))
        for k in (3, 4):
            w = RNG.uniform(0.05, 1.0, k)
            out.append((Categorical(k), ParameterPoint(MEAN, w[:-1] / w.sum())))
        out.append((Gaussian1D(), point(RAW, RNG.uniform(-3.0, 3.0), RNG.uniform(0.2, 4.0))))
    return [(f, f.convert(p, c)) for f, p in out for c in f.charts]


def test_closed_forms_match_quadrature_oracles_at_random_points():
    for fam, pt in random_chart_points(8):
        check_against_oracles(fam, pt)


def test_flat_charts_have_vanishing_connections():
    # the spray carries (1 - alpha)/2 = 0 in the natural chart at alpha = 1 and
    # -(1 + alpha)/2 = 0 in the mean chart at alpha = -1: exactly zero.  The
    # last point, at |mu| / sigma = 4.3, once left 2.2e-11 in the mean chart,
    # where the chart's bending cancelled the cubic term
    for fam, pt in CHART_POINTS + [(Gaussian1D(), point(MEAN, -2.796, 8.235))]:
        if pt.chart == NATURAL:
            assert not np.any(G.christoffel(fam, pt, 1.0).components)
        elif pt.chart == MEAN:
            assert not np.any(G.christoffel(fam, pt, -1.0).components)


def test_metric_and_connections_take_no_expectations(monkeypatch):
    def quadrature(*args, **kwargs):
        raise AssertionError("expectation on the hot path")

    for cls in (Bernoulli, Categorical, Gaussian1D):
        for name in ("expect", "score", "logp_hessian"):
            monkeypatch.setattr(cls, name, quadrature)
    for fam, pt in CHART_POINTS:
        G.fisher_metric(fam, pt)
        for alpha in (-1.0, 0.0, 1.0):
            G.christoffel(fam, pt, alpha)
    fam = Gaussian1D()
    path = L.geodesic(fam, RAW, point(RAW, 0.0, 1.0), point(RAW, 0.5, 1.5), 0, count=9, steps=8)
    assert np.allclose(path.samples[-1], [0.5, 1.5], atol=1e-6)


def test_e_connection_flat_in_natural_chart():
    for fam, theta in (
        (Bernoulli(), np.array([0.4])),
        (Categorical(3), np.array([0.1, -0.6])),
        (Gaussian1D(), np.array([0.7, -0.4])),
    ):
        gam = G.christoffel(fam, ParameterPoint(NATURAL, theta), alpha=1.0)
        assert np.max(np.abs(gam.components)) < 1e-6


def test_m_connection_flat_in_mean_chart():
    for fam, eta in (
        (Bernoulli(), np.array([0.35])),
        (Categorical(3), np.array([0.3, 0.45])),
        (Gaussian1D(), np.array([0.2, 1.1])),
    ):
        gam = G.christoffel(fam, ParameterPoint(MEAN, eta), alpha=-1.0)
        assert np.max(np.abs(gam.components)) < 1e-6


def test_bernoulli_e_connection_in_mean_chart_closed_form():
    eta = 0.3
    gam = G.christoffel(Bernoulli(), point(MEAN, eta), alpha=1.0)
    oracle = (2.0 * eta - 1.0) / (eta * (1.0 - eta))
    assert abs(gam.components[0, 0, 0] - oracle) < 1e-8


def test_levi_civita_is_average_of_dual_pair():
    fam = Gaussian1D()
    pt = ParameterPoint(NATURAL, np.array([0.3, -0.6]))
    g_e = G.christoffel(fam, pt, alpha=1.0).components
    g_m = G.christoffel(fam, pt, alpha=-1.0).components
    g_0 = G.christoffel(fam, pt, alpha=0.0).components
    assert np.max(np.abs(g_0 - 0.5 * (g_e + g_m))) < 1e-8


def test_alpha_duality_first_kind():
    # Gamma^(alpha)_{ij,k} + Gamma^(-alpha)_{ij,k} relation: their average is
    # the Levi-Civita first-kind coefficient for every alpha
    fam = Categorical(3)
    pt = ParameterPoint(MEAN, np.array([0.2, 0.5]))
    lc = G.christoffel_first_kind(fam, pt, 0.0)
    for alpha in (0.4, 1.0):
        a = G.christoffel_first_kind(fam, pt, alpha)
        b = G.christoffel_first_kind(fam, pt, -alpha)
        assert np.max(np.abs(0.5 * (a + b) - lc)) < 1e-12


# -- Transforms ---------------------------------------------------------


def test_rotation_map_orthogonal():
    rot = G.RotationMap(3, 0.7, plane=(0, 2))
    m = rot.matrix
    assert np.max(np.abs(m @ m.T - np.eye(3))) < 1e-15
    assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_transform_metric_preserves_lengths():
    fam = Gaussian1D()
    pt = ParameterPoint(NATURAL, np.array([0.5, -0.7]))
    g = G.fisher_metric(fam, pt)
    rot = G.RotationMap(2, 1.1)
    gt = G.transform_metric(g, rot)
    v_tilde = np.array([0.3, -0.4])
    v = rot.matrix @ v_tilde
    q1 = v @ g.components @ v
    q2 = v_tilde @ gt.components @ v_tilde
    assert abs(q1 - q2) < 1e-12


def test_transform_metric_identity_rotation():
    g = G.fisher_metric(Gaussian1D(), point(RAW, 0.1, 1.2))
    gt = G.transform_metric(g, G.RotationMap(2, 0.0))
    assert np.max(np.abs(gt.components - g.components)) < 1e-15


def test_transform_christoffel_constant_rotation():
    fam = Gaussian1D()
    pt = ParameterPoint(MEAN, np.array([0.0, 1.0]))
    gam = G.christoffel(fam, pt, alpha=0.0)
    rot = G.RotationMap(2, 0.6)
    tilted = G.transform_christoffel(gam, rot)
    # transforming back must recover the original coefficients
    back = G.transform_christoffel(tilted, G.RotationMap(2, -0.6))
    assert np.max(np.abs(back.components - gam.components)) < 1e-10


def test_transform_dimension_mismatch():
    g = G.fisher_metric(Bernoulli(), point(MEAN, 0.5))
    with pytest.raises(ValueError):
        G.transform_metric(g, G.RotationMap(2, 0.3))


def test_fisher_orthogonal_inner_product():
    fam = Gaussian1D()
    at = point(RAW, 0.0, 1.0)
    # diagonal metric: axis vectors are orthogonal
    assert abs(G.fisher_orthogonal(fam, at, [1.0, 0.0], [0.0, 1.0])) < 1e-10
    assert G.fisher_orthogonal(fam, at, [1.0, 0.0], [1.0, 0.0]) > 0.0


# -- Divergence Hessians ------------------------------------------------


def test_divergence_hessians_recover_fisher():
    fam = Gaussian1D()
    pt = point(RAW, 0.3, 1.2)
    g_fd, g_star_fd = G.divergence_hessians(fam, pt)
    g = G.fisher_metric(fam, pt).components
    assert np.max(np.abs(g_fd - g)) / np.max(np.abs(g)) < 1e-4
    assert np.max(np.abs(g_star_fd - g)) / np.max(np.abs(g)) < 1e-4


# -- Batched route ------------------------------------------------------
# Coordinates (..., d) evaluate a whole batch in one call; every batched
# quantity must agree with a loop of single-point calls.

FAMILY_CHARTS = [(f, c) for f in (Bernoulli(), Categorical(3), Categorical(4), Gaussian1D()) for c in f.charts]
FAMILY_CHART_IDS = [f"{type(f).__name__}{f.dim}-{c}" for f, c in FAMILY_CHARTS]


def batch_in_chart(fam, chart, n, rng=RNG):
    """n interior points in `chart`, drawn as in random_chart_points."""
    if isinstance(fam, Bernoulli):
        base = ParameterPoint(MEAN, rng.uniform(0.02, 0.98, (n, 1)))
    elif isinstance(fam, Categorical):
        w = rng.uniform(0.05, 1.0, (n, fam.k))
        base = ParameterPoint(MEAN, (w / w.sum(axis=1, keepdims=True))[:, :-1])
    else:
        base = ParameterPoint(RAW, np.stack([rng.uniform(-3.0, 3.0, n), rng.uniform(0.2, 4.0, n)], axis=1))
    return np.stack([fam.convert(ParameterPoint(base.chart, c), chart).coords for c in base.coords])


def per_point_divergence_hessians(fam, pt):
    """The KL Hessians entry by entry, each from its own single-point kl calls
    on the stencil x = u + s_i h_i e_i + s_j h_j e_j (the reference for the
    batched stencil)."""
    u = pt.coords
    d = u.size
    h = np.maximum(1.0, np.abs(u)) * np.finfo(float).eps ** 0.25

    def second(i, j, first_arg):
        def val(si, sj):
            x = u.copy()
            x[i] += si * h[i]
            x[j] += sj * h[j]
            a, b = ParameterPoint(pt.chart, x), ParameterPoint(pt.chart, u)
            return fam.kl(a, b) if first_arg else fam.kl(b, a)

        if i == j:
            return (val(1, 0) - 2.0 * val(0, 0) + val(-1, 0)) / h[i] ** 2
        return (val(1, 1) - val(1, -1) - val(-1, 1) + val(-1, -1)) / (4.0 * h[i] * h[j])

    g = np.empty((d, d))
    g_star = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            g[i, j] = g[j, i] = second(i, j, True)
            g_star[i, j] = g_star[j, i] = second(i, j, False)
    return g, g_star


def assert_rel_close(batched, looped, rtol=1e-14):
    assert batched.shape == looped.shape
    assert np.max(np.abs(batched - looped)) <= rtol * np.max(np.abs(looped))


@pytest.mark.parametrize("fam, chart", FAMILY_CHARTS, ids=FAMILY_CHART_IDS)
def test_batched_metrics_and_kl_match_per_point_loop(fam, chart):
    xs = batch_in_chart(fam, chart, 12)
    ys = batch_in_chart(fam, chart, 12)
    pts = ParameterPoint(chart, xs)
    assert_rel_close(
        G.fisher_metric(fam, pts).components,
        np.stack([G.fisher_metric(fam, ParameterPoint(chart, x)).components for x in xs]),
    )
    g, g_star = G.divergence_hessians(fam, pts)
    loop = [per_point_divergence_hessians(fam, ParameterPoint(chart, x)) for x in xs]
    assert_rel_close(g, np.stack([a for a, _ in loop]))
    assert_rel_close(g_star, np.stack([b for _, b in loop]))
    kl = fam.kl(pts, ParameterPoint(chart, ys))
    assert_rel_close(kl, np.array([fam.kl(ParameterPoint(chart, x), ParameterPoint(chart, y)) for x, y in zip(xs, ys)]))
    # paired batches broadcast: one q against all p
    assert_rel_close(
        fam.kl(pts, ParameterPoint(chart, ys[0])),
        np.array([fam.kl(ParameterPoint(chart, x), ParameterPoint(chart, ys[0])) for x in xs]),
    )


@pytest.mark.parametrize(
    "fam, chart",
    [fc for fc in FAMILY_CHARTS if fc[1] != RAW],
    ids=[i for i, (_, c) in zip(FAMILY_CHART_IDS, FAMILY_CHARTS) if c != RAW],
)
def test_fisher_metric_is_the_flat_charts_potential_hessian(fam, chart):
    # exactly: psi'' in the natural chart and phi'' in the mean chart are the
    # metric itself, with no pullback or symmetrisation to round them
    xs = batch_in_chart(fam, chart, 12, np.random.default_rng(2201))
    hessian = fam.hess_potential if chart == NATURAL else fam.hess_dual_potential
    assert (G.fisher_metric(fam, ParameterPoint(chart, xs)).components == hessian(xs)).all()


def test_dual_metrics_evaluates_psi_hessian_once(monkeypatch):
    fam = Categorical(4)
    calls = []
    hess = fam.hess_potential
    monkeypatch.setattr(fam, "hess_potential", lambda theta: calls.append(theta) or hess(theta))
    g, g_star = G.dual_metrics(fam, point(NATURAL, 0.3, -0.2, 0.5))
    assert len(calls) == 1
    assert (g.chart, g_star.chart) == (NATURAL, MEAN)
    # psi''(800) underflows to 0: the natural chart has no Fisher metric there
    with pytest.raises(G.DegenerateMetricError, match="Fisher metric not positive definite"):
        G.dual_metrics(Bernoulli(), point(NATURAL, 800.0))


def test_batched_metric_checks_every_sample():
    comps = np.stack([np.eye(2), np.array([[1.0, 0.2], [0.1, 1.0]])])
    with pytest.raises(G.DegenerateMetricError, match="symmetric"):
        G.MetricTensor(MEAN, ParameterPoint(MEAN, np.zeros((2, 2))), comps)
    comps = np.stack([np.eye(2), np.array([[1.0, 0.0], [0.0, np.inf]])])
    with pytest.raises(G.DegenerateMetricError, match="finite"):
        G.MetricTensor(MEAN, ParameterPoint(MEAN, np.zeros((2, 2))), comps)


def test_batched_validation_rejects_any_bad_point():
    path = ParameterPoint(MEAN, np.array([[0.2], [0.5], [1.3]]))
    with pytest.raises(InvalidParameterError, match=r"eta must lie in \(0, 1\)"):
        G.fisher_metric(Bernoulli(), path)
    # the stencil of a point near the boundary leaves the chart
    with pytest.raises(InvalidParameterError, match=r"eta must lie in \(0, 1\)"):
        G.divergence_hessians(Bernoulli(), ParameterPoint(MEAN, np.array([[0.5], [1e-6]])))
    with pytest.raises(InvalidParameterError, match="sigma must be positive"):
        G.divergence_hessians(Gaussian1D(), ParameterPoint(RAW, np.array([[0.0, 1.0], [0.0, 1e-6]])))


def single_point_forbidden(fn):
    """fn, raising when every ParameterPoint argument is a single point."""

    def guarded(*args):
        if all(a.coords.ndim == 1 for a in args if isinstance(a, ParameterPoint)):
            raise AssertionError(f"single-point {fn.__name__} on the batched route")
        return fn(*args)

    return guarded


def report_paths():
    for fam, chart in FAMILY_CHARTS:
        a, b = batch_in_chart(fam, chart, 2)
        yield fam, L.ParamPath.straight(chart, a, b, 17)


def test_length_report_takes_no_single_point_calls(monkeypatch):
    for name in ("fisher_metric", "divergence_hessians"):
        guarded = single_point_forbidden(getattr(G, name))
        monkeypatch.setattr(G, name, guarded)
        monkeypatch.setattr(L, name, guarded)
    for cls in (Bernoulli, Categorical, Gaussian1D):
        monkeypatch.setattr(cls, "kl", single_point_forbidden(cls.kl))
    for fam, path in report_paths():
        rep = L.length_report(path, fam)
        assert np.isfinite([rep.primal, rep.dual, rep.harmonic, rep.divergence_based]).all()


def test_length_report_evaluates_the_kl_stencil_once_per_argument_slot(monkeypatch):
    calls = []

    def counting(fn):
        def counted(self, p, q):
            calls.append((p.coords.shape, q.coords.shape))
            return fn(self, p, q)

        return counted

    for cls in (Bernoulli, Categorical, Gaussian1D):
        monkeypatch.setattr(cls, "kl", counting(cls.kl))
    for fam, path in report_paths():
        calls.clear()
        L.length_report(path, fam)
        d = fam.dim
        stencil = (path.count, 2 * d * d + 1, d)
        assert calls == [(stencil, (path.count, 1, d)), ((path.count, 1, d), stencil)]


# -- Properties of the array kl ------------------------------------------
# Wide and near-boundary ranges: Bernoulli means within 1e-12 of {0, 1} and
# log-odds to +-500, Categorical log-odds to +-30 and weights down to 1e-6,
# Gaussian sigma from 1e-3 to 1e3 and mu to +-1e3 sigma.  (A larger mu /
# sigma leaves the mean chart's variance eta2 - eta1^2 to cancellation.)

bern_mean = st.floats(1e-12, 1.0 - 1e-12).map(lambda e: [e])
bern_natural = st.floats(-500.0, 500.0).map(lambda t: [t])
cat_natural = st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3)
cat_weights = st.lists(st.floats(1e-6, 1.0), min_size=4, max_size=4)
cat_mean = cat_weights.map(lambda w: list(np.array(w[:-1]) / sum(w)))
gauss_raw = st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)).map(lambda zs: [zs[0] * zs[1], zs[1]])

PROPERTY_CASES = {
    "bernoulli-mean": (Bernoulli(), MEAN, bern_mean),
    "bernoulli-natural": (Bernoulli(), NATURAL, bern_natural),
    "categorical4-mean": (Categorical(4), MEAN, cat_mean),
    "categorical4-natural": (Categorical(4), NATURAL, cat_natural),
    "gaussian-raw": (Gaussian1D(), RAW, gauss_raw),
}


def paired_batches(coords):
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.lists(coords, min_size=n, max_size=n), st.lists(coords, min_size=n, max_size=n))
    )


@pytest.mark.parametrize("case", sorted(PROPERTY_CASES))
def test_kl_properties(case):
    fam, chart, coords = PROPERTY_CASES[case]

    @given(paired_batches(coords))
    def check(pair):
        p = ParameterPoint(chart, np.array(pair[0]))
        q = ParameterPoint(chart, np.array(pair[1]))
        kl = fam.kl(p, q)
        assert kl.shape == (p.coords.shape[0],)
        assert np.all(kl >= -1e-13)
        assert np.all(fam.kl(p, p) == 0.0)
        # Bregman: psi(theta_q) + phi(eta_p) - <theta_q, eta_p> = D(p || q)
        theta_q = fam.convert(q, NATURAL).coords
        eta_p = fam.convert(p, MEAN).coords
        psi, phi = fam.potential(theta_q), fam.dual_potential(eta_p)
        inner = np.sum(theta_q * eta_p, axis=-1)
        scale = 1.0 + np.abs(psi) + np.abs(phi) + np.abs(inner)
        assert np.all(np.abs(psi + phi - inner - kl) <= 1e-9 * scale)

    check()


# g g* = I holds up to rounding amplified by the condition number of g, and
# the chart change adds cancellation of its own: 1 - sum(eta) for the last
# probability and eta2 - eta1^2 for the variance.  The draws keep that loss
# below the tolerance: Bernoulli means within 1e-12 of {0, 1}, log-odds to
# +-30, Categorical weights down to 1e-4 and log-odds to +-10, Gaussian mu to
# +-100 sigma.  A natural draw is compared at the natural coordinates of its
# mean image: rounding eta = s(theta) near 1 moves 1 - eta by a relative
# eps / (1 - eta) (1e-3 at log-odds 30), which no metric of the rounded eta
# can undo, while (theta(eta), eta) is an exactly dual pair.
METRIC_CASES = {
    "bernoulli-mean": (Bernoulli(), MEAN, st.floats(1e-12, 1.0 - 1e-12).map(lambda e: [e])),
    "bernoulli-natural": (Bernoulli(), NATURAL, st.floats(-30.0, 30.0).map(lambda t: [t])),
    "categorical4-mean": (
        Categorical(4), MEAN,
        st.lists(st.floats(1e-4, 1.0), min_size=4, max_size=4).map(lambda w: list(np.array(w[:-1]) / sum(w))),
    ),
    "categorical4-natural": (Categorical(4), NATURAL, st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)),
    "gaussian-raw": (
        Gaussian1D(), RAW,
        st.tuples(st.floats(-100.0, 100.0), st.floats(1e-3, 1e3)).map(lambda zs: [zs[0] * zs[1], zs[1]]),
    ),
}


@pytest.mark.parametrize("case", sorted(METRIC_CASES))
def test_natural_and_mean_metrics_are_inverse(case):
    fam, chart, coords = METRIC_CASES[case]

    @given(st.lists(coords, min_size=1, max_size=6))
    def check(xs):
        pts = ParameterPoint(chart, np.array(xs))
        eta = fam.convert(pts, MEAN)
        g = G.fisher_metric(fam, fam.convert(eta if chart == NATURAL else pts, NATURAL)).components
        g_star = G.fisher_metric(fam, eta).components
        err = np.abs(g @ g_star - np.eye(fam.dim)).max(axis=(-2, -1))
        cond = np.linalg.norm(g, axis=(-2, -1)) * np.linalg.norm(g_star, axis=(-2, -1))
        assert np.all(err <= 1e-12 * cond)

    check()


@pytest.mark.parametrize("eta", [1.0 - 1e-8, 1e-8, 1.0 - 1e-15])
def test_bernoulli_metrics_inverse_near_the_boundary(eta):
    # psi'' = s(theta) s(-theta) keeps 1 - s accurate, where s (1 - s) from a
    # rounded s loses up to a relative eps / (1 - eta): |g g* - 1| = 0.23 at
    # eta = 1 - 1e-15
    fam = Bernoulli()
    pt = point(MEAN, eta)
    g = G.fisher_metric(fam, fam.convert(pt, NATURAL)).components
    g_star = G.fisher_metric(fam, pt).components
    assert abs(g[0, 0] * g_star[0, 0] - 1.0) <= 1e-12


def test_fisher_metric_rejects_a_metric_that_is_not_positive_definite():
    # s(800) s(-800) underflows to 0: no metric, rather than g = 0
    with pytest.raises(G.DegenerateMetricError, match="positive definite"):
        G.fisher_metric(Bernoulli(), point(NATURAL, 800.0))
    with pytest.raises(G.DegenerateMetricError, match="positive definite"):
        G.fisher_metric(Bernoulli(), ParameterPoint(NATURAL, np.array([[0.0], [-800.0]])))


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.4, 1.0])
@pytest.mark.parametrize("fam, chart", FAMILY_CHARTS, ids=FAMILY_CHART_IDS)
def test_batched_christoffel_matches_per_point_loop(fam, chart, alpha):
    xs = batch_in_chart(fam, chart, 12)
    looped = np.stack([G.christoffel(fam, ParameterPoint(chart, x), alpha).components for x in xs])
    assert_rel_close(G.christoffel(fam, ParameterPoint(chart, xs), alpha).components, looped)
    # any leading batch shape
    grid = ParameterPoint(chart, xs.reshape(3, 4, -1))
    assert_rel_close(G.christoffel(fam, grid, alpha).components, looped.reshape((3, 4) + looped.shape[1:]))
    assert_rel_close(
        G.christoffel_first_kind(fam, ParameterPoint(chart, xs), alpha),
        np.stack([G.christoffel_first_kind(fam, ParameterPoint(chart, x), alpha) for x in xs]),
    )


# -- geodesic spray -------------------------------------------------------

SPRAY_CHARTS = [
    (Bernoulli(), NATURAL),
    (Bernoulli(), MEAN),
    (Categorical(4), NATURAL),
    (Categorical(4), MEAN),
    (Gaussian1D(), RAW),
    (Gaussian1D(), NATURAL),
    (Gaussian1D(), MEAN),
]
SPRAY_IDS = [f"{type(f).__name__}{f.dim}-{c}" for f, c in SPRAY_CHARTS]


def contracted_christoffel(fam, pt, v, alpha):
    """Gamma^k_ij v^i v^j from the full Christoffel tensor: the oracle."""
    return np.einsum("...kij,...i,...j->...k", G.christoffel(fam, pt, alpha).components, v, v)


def spray_points(fam, chart, rng):
    """A (3, 4) batch of points in `chart`; Gaussian points have sigma in
    [0.5, 2] and |mu| / sigma up to 4.5."""
    if isinstance(fam, Gaussian1D):
        sigma = rng.uniform(0.5, 2.0, 12)
        raw = np.stack([rng.uniform(-4.5, 4.5, 12) * sigma, sigma], axis=1)
        xs = fam.convert(ParameterPoint(RAW, raw), chart).coords
    else:
        xs = batch_in_chart(fam, chart, 12, rng)
    return xs.reshape(3, 4, -1)


# Error relative to the largest component of the alpha = 0 spray at the same
# points.  Measured worst case: 1.3e-14, on Gaussian mean at alpha = 1; 3.5e-15
# outside the Gaussian mean chart.  The bound is 4 times the worst case.  The
# difference is the oracle's: polarisation subtracts sprays at e_j +- e_k,
# each of which cancels in psi'''(u, u, .).  On 30 other seeds the Gaussian
# mean chart reached 3.1e-13, where a 50-digit reference put the spray within
# 3.6e-14.
@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.4, 1.0])
@pytest.mark.parametrize("fam, chart", SPRAY_CHARTS, ids=SPRAY_IDS)
def test_geodesic_spray_matches_contracted_christoffel(fam, chart, alpha):
    rng = np.random.default_rng(20261018)
    xs = spray_points(fam, chart, rng)
    vs = rng.normal(0.0, 0.5, xs.shape)
    for x, v in ((xs[0, 0], vs[0, 0]), (xs, vs)):
        pt = ParameterPoint(chart, x)
        spray = G.geodesic_spray(fam, pt, v, alpha)
        assert spray.shape == x.shape
        scale = np.max(np.abs(contracted_christoffel(fam, pt, v, 0.0)))
        assert np.max(np.abs(spray - contracted_christoffel(fam, pt, v, alpha))) <= 6e-14 * scale


@pytest.mark.parametrize("fam", [Bernoulli(), Categorical(4), Gaussian1D()], ids=lambda f: type(f).__name__)
def test_mean_chart_spray_is_exactly_zero_for_the_mixture_connection(fam):
    # -(1 + alpha)/2 psi_abc u^a u^b at alpha = -1: m-flatness without rounding
    xs = batch_in_chart(fam, MEAN, 6, np.random.default_rng(5))
    spray = G.geodesic_spray(fam, ParameterPoint(MEAN, xs), np.ones_like(xs), -1.0)
    assert not np.any(spray)


# Measured: at most 2.5e-16 relative to the largest component.
@pytest.mark.parametrize("fam", [Bernoulli(), Categorical(5), Gaussian1D()], ids=lambda f: type(f).__name__)
def test_cubic_form_matches_third_potential(fam):
    rng = np.random.default_rng(11)
    theta = fam.convert(ParameterPoint(MEAN, batch_in_chart(fam, MEAN, 8, rng)), NATURAL).coords
    u = rng.normal(0.0, 1.0, theta.shape)
    ref = np.einsum("...abc,...a,...b->...c", fam.third_potential(theta), u, u)
    got = fam.cubic_form(theta, u)
    assert got.shape == theta.shape
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_christoffel_is_one_spray_call(monkeypatch):
    calls = []
    spray = G.geodesic_spray

    def counted(fam, pt, v, alpha):
        calls.append((pt.coords.shape, v.shape))
        return spray(fam, pt, v, alpha)

    monkeypatch.setattr(G, "geodesic_spray", counted)
    fam = Categorical(4)
    xs = batch_in_chart(fam, MEAN, 12)
    for x in (xs[0], xs.reshape(3, 4, -1)):
        calls.clear()
        G.christoffel(fam, ParameterPoint(MEAN, x), 0.0)
        # the d (d + 1) velocities e_j +- e_k, j <= k, broadcast against the points
        assert calls == [(x.shape[:-1] + (1, 3), (12, 3))]


def test_spray_rejects_points_outside_the_chart():
    with pytest.raises(InvalidParameterError):
        G.geodesic_spray(Bernoulli(), ParameterPoint(MEAN, np.array([[0.5], [1.2]])), np.ones((2, 1)), 0.0)


# -- the Gaussian's representable region ------------------------------------

SCALE_MAX = 1.7e38  # sigma, 1 / sigma and |mu| / sigma of a valid point, at most


@pytest.mark.parametrize("chart", [RAW, NATURAL, MEAN])
def test_gaussian_region_corners_compute_without_floating_point_errors(chart):
    # at and near the corners of the region every closed form is finite or
    # reports a metric that is not positive definite, never an overflow
    fam = Gaussian1D()
    unit = fam.convert(point(RAW, 0.0, 1.0), chart)
    for sigma in (1.0 / SCALE_MAX, 1e-10, 1.0, 1e10, SCALE_MAX):
        for z in (0.0, 1.0, -1e10, SCALE_MAX, -SCALE_MAX):
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                pt = fam.convert(point(RAW, z * sigma, sigma), chart)
                try:
                    fam.validate(pt)
                except InvalidParameterError:
                    continue  # mu^2 + sigma^2 rounds sigma^2 away in the mean chart
                fam.kl(pt, unit), fam.kl(unit, pt)
                for fn in (lambda: G.fisher_metric(fam, pt),
                           lambda: G.legendre_dual(fam, fam.convert(pt, NATURAL))):
                    try:
                        fn()
                    except G.DegenerateMetricError:
                        pass

