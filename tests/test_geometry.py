"""Fisher metrics, Legendre duality, divergences, and connections."""
import numpy as np
import pytest

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


# -- Legendre duality ---------------------------------------------------


def test_legendre_dual_gaussian():
    fam = Gaussian1D()
    pot = G.PotentialPair.from_family(fam)
    theta = ParameterPoint(NATURAL, np.array([1.0, -0.5]))
    eta, phi = G.legendre_dual(pot, theta)
    assert eta.chart == MEAN
    assert np.allclose(eta.coords, [1.0, 2.0])
    assert abs(phi - fam.dual_potential(eta.coords)) < 1e-12


def test_legendre_quadratic_self_dual():
    pot = G.PotentialPair.quadratic(dim=3)
    theta = ParameterPoint(G.PRIMAL, np.array([1.0, -2.0, 0.5]))
    eta, phi = G.legendre_dual(pot, theta)
    assert np.allclose(eta.coords, theta.coords)
    assert abs(phi - 0.5 * np.dot(theta.coords, theta.coords)) < 1e-15


def test_legendre_chart_mismatch():
    pot = G.PotentialPair.from_family(Bernoulli())
    with pytest.raises(G.ChartError):
        G.legendre_dual(pot, point(MEAN, 0.5))


# -- Bregman / KL -------------------------------------------------------


def test_bregman_equals_kl():
    fam = Gaussian1D()
    pot = G.PotentialPair.from_family(fam)
    p = point(RAW, 0.0, 1.0)
    q = point(RAW, 0.8, 1.5)
    theta_q = fam.convert(q, NATURAL)
    eta_p = fam.convert(p, MEAN)
    breg = G.bregman_divergence(pot, theta_q, eta_p)
    assert abs(breg - fam.kl(p, q)) < 1e-12


def test_bregman_zero_iff_dual_pair():
    fam = Bernoulli()
    pot = G.PotentialPair.from_family(fam)
    theta = ParameterPoint(NATURAL, np.array([0.9]))
    eta = ParameterPoint(MEAN, fam.grad_potential(theta.coords))
    assert abs(G.bregman_divergence(pot, theta, eta)) < 1e-14
    other = ParameterPoint(MEAN, np.array([0.2]))
    assert G.bregman_divergence(pot, theta, other) > 1e-3


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
        pot = G.PotentialPair.from_family(fam)
        g, g_star = G.dual_metrics(pot, ParameterPoint(NATURAL, theta))
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
    for fam, pt in CHART_POINTS:
        if pt.chart == NATURAL:
            # H = 0 and the cubic term carries (1 - alpha)/2 = 0: exactly zero
            assert not np.any(G.christoffel(fam, pt, 1.0).components)
        elif pt.chart == MEAN:
            # the chart's bending cancels the cubic term up to rounding
            scale = np.max(np.abs(G.christoffel(fam, pt, 1.0).components))
            assert np.max(np.abs(G.christoffel(fam, pt, -1.0).components)) <= 1e-14 * scale


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


def test_metric_field_matches_pointwise():
    fam = Bernoulli()
    field = G.metric_field(fam, MEAN)
    direct = G.fisher_metric(fam, point(MEAN, 0.4)).components
    assert np.max(np.abs(field(np.array([0.4])) - direct)) < 1e-14
