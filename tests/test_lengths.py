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


def softmax(theta):
    """All k probabilities from the k - 1 log-odds against the last."""
    e = np.exp(np.append(theta, 0.0))
    return e / e.sum()


def levi_civita_initial_velocity(fam, chart, x0, x1):
    """Initial velocity in `chart` of the Levi-Civita geodesic from x0 to x1
    on t in [0, 1], in closed form.  Bernoulli and Categorical geodesics run
    at constant speed along the great circle of sqrt(p) (for Bernoulli,
    uniformly in arcsin sqrt(eta)), and Gaussian ones along the hyperbolic
    geodesics of the half-plane (mu / sqrt(2), sigma), whose metric is half
    the Fisher metric."""
    if isinstance(fam, Gaussian1D):
        (m0, s0), (m1, s1) = (fam.convert(ParameterPoint(chart, x), RAW).coords for x in (x0, x1))
        (X0, X1), (Y0, Y1) = (m0 / np.sqrt(2.0), m1 / np.sqrt(2.0)), (s0, s1)
        dist = np.arccosh(1.0 + ((X1 - X0) ** 2 + (Y1 - Y0) ** 2) / (2.0 * Y0 * Y1))
        # the tangent of the circle centred at (c, 0) through both points,
        # at Euclidean speed dist * Y0
        c = (X1**2 + Y1**2 - X0**2 - Y0**2) / (2.0 * (X1 - X0))
        dX, dY = dist * Y0 * np.sign(X1 - X0) * np.array([Y0, c - X0]) / np.hypot(Y0, c - X0)
        dm, ds = np.sqrt(2.0) * dX, dY
        return {
            RAW: np.array([dm, ds]),
            NATURAL: np.array([dm / s0**2 - 2.0 * m0 * ds / s0**3, ds / s0**3]),
            MEAN: np.array([dm, 2.0 * m0 * dm + 2.0 * s0 * ds]),
        }[chart]
    p0, p1 = (fam.convert(ParameterPoint(chart, x), MEAN).coords for x in (x0, x1))
    q0, q1 = np.append(p0, 1.0 - p0.sum()), np.append(p1, 1.0 - p1.sum())
    r0, r1 = np.sqrt(q0), np.sqrt(q1)
    angle = np.arccos(r0 @ r1)
    dq = 2.0 * r0 * angle * (r1 - np.cos(angle) * r0) / np.sin(angle)
    if chart == MEAN:
        return dq[:-1]
    # theta_i = log(p_i / p_k)
    return dq[:-1] / q0[:-1] - dq[-1] / q0[-1]


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
    length = L.path_length(path, np.broadcast_to(np.eye(2), (path.count, 2, 2)))
    assert abs(length - 5.0) < 1e-10


# -- length functionals -------------------------------------------------


def per_point(path, field_fn):
    """The (count, d, d) metric array of a per-point metric callable."""
    return np.stack([np.atleast_2d(field_fn(c)) for c in path.samples])


def test_primal_length_bernoulli_closed_form():
    path = L.ParamPath.straight(MEAN, [0.2], [0.8], 257)
    length = L.primal_length(path, Bernoulli())
    assert abs(length - bernoulli_fisher_length(0.2, 0.8)) < 1e-5


def test_dual_length_equals_primal_of_image():
    # the grad-psi image under g* has the same length as the theta path under g
    fam = Bernoulli()
    path = L.ParamPath.straight(NATURAL, [-1.0], [1.2], 129)
    dual = L.length_report(path, fam).dual
    image = np.stack([fam.grad_potential(c) for c in path.samples])
    primal_of_image = L.primal_length(L.ParamPath(MEAN, image, path.ts), fam)
    assert abs(dual - primal_of_image) < 1e-10


def test_divergence_length_is_sqrt2_primal():
    # KL Hessians give g in both slots, so g + g* doubles the quadratic form
    fam = Bernoulli()
    path = L.ParamPath.straight(MEAN, [0.25], [0.7], 65)
    ld = L.length_report(path, fam).divergence_based
    lp = L.primal_length(path, fam)
    assert abs(ld - np.sqrt(2.0) * lp) < 1e-6


def test_divergence_curvature_estimator_agrees():
    fam = Bernoulli()
    path = L.ParamPath.straight(MEAN, [0.25], [0.7], 65)
    ld = L.length_report(path, fam).divergence_based
    lc = divergence_length_curvature(path, fam)
    assert abs(ld - lc) < 1e-5


def test_harmonic_length_between_min_and_max():
    fam = Bernoulli()
    path = L.ParamPath.straight(MEAN, [0.2], [0.75], 33)
    g = G.fisher_metric(fam, path.batch()).components
    g_star = G.divergence_hessians(fam, path.batch())[1]
    lg = L.path_length(path, g)
    lgs = L.path_length(path, g_star)
    lh = L.harmonic_length(path, g, g_star)
    assert min(lg, lgs) - 1e-9 <= lh <= max(lg, lgs) + 1e-9


def test_harmonic_of_equal_metrics_is_identity():
    path = L.ParamPath.straight("flat", [0.0, 0.0], [1.0, 1.0], 33)
    g = np.broadcast_to(np.diag([2.0, 3.0]), (path.count, 2, 2))
    assert abs(L.harmonic_length(path, g, g) - L.path_length(path, g)) < 1e-12


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
    image = L.ParamPath(
        MEAN, np.stack([fam.convert(point(chart, *c), MEAN).coords for c in path.samples]), path.ts
    )

    def g_field(coords):
        return G.fisher_metric(fam, ParameterPoint(chart, coords)).components

    def g_kl_fields(coords):
        return G.divergence_hessians(fam, ParameterPoint(chart, coords))

    oracles = {
        "primal": L.path_length(path, per_point(path, g_field)),
        "dual": L.path_length(image, per_point(image, fam.hess_dual_potential)),
        "harmonic": L.harmonic_length(
            path, per_point(path, g_field), per_point(path, lambda c: g_kl_fields(c)[1])
        ),
        "divergence_based": L.path_length(path, per_point(path, lambda c: sum(g_kl_fields(c)))),
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
# 1.92e-5 (at mu = 0, 1e6, 1e7 and 1e8 alike), Categorical(3) 8.2e-6,
# Categorical(16) 1.07e-6 in the mean chart and 1.78e-6 in the natural chart
# at 64 steps; the bounds are about twice these.
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
        # sigma doubles at mu = 1e6: the general chart-change spray cancelled
        # terms that grow with mu / sigma, and shooting did not converge
        pytest.param(Gaussian1D(), RAW, [1e6, 1.0], [1e6, 2.0], 64,
                     lambda a, b: np.sqrt(2.0) * np.log(2.0), 4e-5, id="gaussian-raw-far-mean"),
        # a velocity perturbation of sqrt(eps) max(1, |v0|), not scaled by
        # |x0|, moved mu by less than an ulp, and the sensitivity was singular
        pytest.param(Gaussian1D(), RAW, [1e7, 1.0], [1e7, 2.0], 64,
                     lambda a, b: np.sqrt(2.0) * np.log(2.0), 4e-5, id="gaussian-raw-mean-1e7"),
        pytest.param(Gaussian1D(), RAW, [1e8, 1.0], [1e8, 2.0], 64,
                     lambda a, b: np.sqrt(2.0) * np.log(2.0), 4e-5, id="gaussian-raw-mean-1e8"),
        pytest.param(Categorical(16), NATURAL, [0.0] * 15, [1.0, -1.0] + [0.5] * 13, 64,
                     lambda a, b: categorical_fisher_distance(softmax(a)[:-1], softmax(b)[:-1]), 4e-6,
                     id="categorical16-natural"),
    ],
)
def test_fisher_geodesic_closed_form_distance(fam, chart, a, b, steps, oracle, tol):
    path = L.geodesic(fam, chart, point(chart, *a), point(chart, *b), alpha=0,
                      count=steps + 1, steps=steps)
    length = L.primal_length(path, fam)
    assert abs(length - oracle(a, b)) < tol


# Samples between the RK4 nodes, against the closed form sin^2 of a linear
# arcsin sqrt(eta).  Cubic Hermite in the node velocities measured 1.4e-9 at
# 128 steps (count 65, 100 and 1000 alike) and 9.8e-7 at 8 steps; linear
# interpolation measured 3.6e-6 at count 100 and 8.6e-4 at 8 steps.
@pytest.mark.parametrize("count, steps, tol", [(100, 128, 1e-8), (1000, 128, 1e-8), (65, 8, 1e-5)])
def test_geodesic_samples_between_nodes_keep_the_integrator_accuracy(count, steps, tol):
    path = L.geodesic(Bernoulli(), MEAN, point(MEAN, 0.2), point(MEAN, 0.8), alpha=0, count=count, steps=steps)
    a, b = np.arcsin(np.sqrt(0.2)), np.arcsin(np.sqrt(0.8))
    assert np.max(np.abs(path.samples[:, 0] - np.sin(a + path.ts * (b - a)) ** 2)) <= tol


@pytest.mark.parametrize("count", [65, 100])
@pytest.mark.parametrize(
    "fam, chart, a",
    [(Bernoulli(), MEAN, [0.3]), (Categorical(3), NATURAL, [0.4, -1.2]), (Gaussian1D(), RAW, [1000.0, 1.0])],
    ids=["bernoulli-mean", "categorical3-natural", "gaussian-raw"],
)
def test_geodesic_between_equal_endpoints_is_constant(fam, chart, a, count):
    path = L.geodesic(fam, chart, point(chart, *a), point(chart, *a), alpha=0, count=count)
    assert np.array_equal(path.samples, np.tile(a, (count, 1)))


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
    # measured integrations; starting from the chord and stopping only on a
    # measured miss below tol / 100 took 4, 4 and 5
    for fam, chart, a, b, expected in [
        (Bernoulli(), MEAN, [0.2], [0.8], 2),
        (Categorical(3), MEAN, [0.2, 0.5], [0.5, 0.3], 2),
        (Gaussian1D(), RAW, [0.0, 1.0], [1.0, 2.0], 4),
    ]:
        calls.clear()
        L.geodesic(fam, chart, point(chart, *a), point(chart, *b), alpha=0, count=steps + 1, steps=steps)
        d = fam.dim
        assert set(calls) == {(d + 1, d)}
        iterations, rest = divmod(len(calls), 4 * steps)
        assert rest == 0 and iterations == expected


# Each chord is the smaller of the two; measured error ratios on halving it
# are 6.9-8.7 for the first trial (third order) and 3.7-4.1 for the chord.
@pytest.mark.parametrize(
    "fam, chart, x0, chord",
    [
        pytest.param(Bernoulli(), MEAN, [0.3], [0.025], id="bernoulli-mean"),
        pytest.param(Bernoulli(), NATURAL, [-1.0], [0.125], id="bernoulli-natural"),
        pytest.param(Categorical(3), MEAN, [0.2, 0.5], [0.025, -0.025], id="categorical3-mean"),
        pytest.param(Categorical(3), NATURAL, [0.3, -0.2], [0.125, 0.0625], id="categorical3-natural"),
        pytest.param(Gaussian1D(), RAW, [0.0, 1.0], [0.0625, 0.0625], id="gaussian-raw"),
        pytest.param(Gaussian1D(), NATURAL, [0.5, -0.5], [0.0375, -0.025], id="gaussian-natural"),
        pytest.param(Gaussian1D(), MEAN, [0.0, 1.0], [0.0625, 0.125], id="gaussian-mean"),
    ],
)
def test_first_trial_is_third_order_in_the_chord(fam, chart, x0, chord):
    # the mean of the e- and m-geodesic initial velocities against the exact
    # Levi-Civita one, with the chord x1 - x0 as the second-order reference
    x0 = np.array(x0)
    trial_err, chord_err = [], []
    for h in (2.0, 1.0):
        x1 = x0 + h * np.array(chord)
        exact = levi_civita_initial_velocity(fam, chart, x0, x1)
        trial_err.append(np.max(np.abs(L._first_trial(fam, chart, x0, x1) - exact)))
        chord_err.append(np.max(np.abs(x1 - x0 - exact)))
    assert trial_err[0] >= 6.0 * trial_err[1]
    assert 3.5 * chord_err[1] <= chord_err[0] <= 4.5 * chord_err[1]


@pytest.mark.parametrize(
    "fam, chart, a, b",
    [
        (Bernoulli(), MEAN, [0.2], [0.8]),
        (Categorical(3), MEAN, [0.2, 0.5], [0.5, 0.3]),
        (Gaussian1D(), RAW, [0.0, 1.0], [1.0, 2.0]),
    ],
)
def test_geodesic_contraction_stop_matches_tight_tolerance(fam, chart, a, b):
    # the stop on the predicted miss leaves the path within tol / 100 of a
    # shot run to tol = 1e-10 (measured at most 1.4e-9), with exact endpoints
    pa, pb = point(chart, *a), point(chart, *b)
    path = L.geodesic(fam, chart, pa, pb, alpha=0, count=17, steps=16)
    tight = L.geodesic(fam, chart, pa, pb, alpha=0, count=17, steps=16, tol=1e-10)
    assert np.max(np.abs(path.samples - tight.samples)) <= 1e-6 * 1e-2
    assert np.array_equal(path.samples[0], a)
    assert np.max(np.abs(path.samples[-1] - b)) <= 1e-15


def _sweep_pairs(count, seed=20261019):
    """Seeded endpoint pairs (family, chart, a, b), cycling through Bernoulli
    mean and natural, Categorical(3) mean and natural and the three Gaussian
    charts, with Gaussian endpoints drawn as raw (mu, sigma)."""
    rng = np.random.default_rng(seed)
    gauss = Gaussian1D()
    pairs = []
    for i in range(count):
        kind = i % 7
        if kind == 0:
            pairs.append((Bernoulli(), MEAN, rng.uniform(1e-3, 1.0 - 1e-3, 1), rng.uniform(1e-3, 1.0 - 1e-3, 1)))
        elif kind == 1:
            pairs.append((Bernoulli(), NATURAL, rng.uniform(-40.0, 40.0, 1), rng.uniform(-40.0, 40.0, 1)))
        elif kind in (2, 3):
            p, q = rng.dirichlet(np.ones(3), size=2)
            if kind == 2:
                pairs.append((Categorical(3), MEAN, p[:2], q[:2]))
            else:
                pairs.append((Categorical(3), NATURAL, np.log(p[:2] / p[2]), np.log(q[:2] / q[2])))
        else:
            chart = (RAW, NATURAL, MEAN)[kind - 4]
            ends = [ParameterPoint(RAW, np.array([rng.uniform(-3.0, 3.0), rng.uniform(0.2, 3.0)])) for _ in range(2)]
            pairs.append((gauss, chart, *(gauss.convert(e, chart).coords for e in ends)))
    return pairs


# Sweep indices whose shot raises NonConvergenceError when Newton starts from
# the chord and stops only on a measured miss below tol / 100 (three wide
# Bernoulli log-odds pairs and one pair in each Gaussian chart): the other
# pairs joined there and must still join.
_SWEEP_FAILED_WITH_CHORD_START = (1, 5, 13, 22, 29, 32)


def test_geodesic_sweep_joins_or_reports_nonconvergence():
    failed = []
    for i, (fam, chart, a, b) in enumerate(_sweep_pairs(35)):
        try:
            path = L.geodesic(fam, chart, ParameterPoint(chart, a), ParameterPoint(chart, b),
                              alpha=0, count=17, steps=16)
        except NonConvergenceError:
            failed.append(i)
            continue
        assert np.array_equal(path.samples[0], a), i
        assert np.max(np.abs(path.samples[-1] - b)) <= 1e-6, i
    assert set(failed) <= set(_SWEEP_FAILED_WITH_CHORD_START), failed


@pytest.mark.parametrize(
    "fam, chart, a, b",
    [
        # log-odds past 36.7 round eta to 1 in double precision, where phi''
        # is infinite: from such a start the first trial is the chord, and
        # computing it raises no RuntimeWarning
        (Bernoulli(), NATURAL, [37.5], [39.0]),
        (Bernoulli(), NATURAL, [40.0], [36.0]),
        (Bernoulli(), NATURAL, [36.0], [40.0]),
        (Bernoulli(), NATURAL, [-38.0], [-36.0]),
        (Bernoulli(), MEAN, [1e-3], [0.5]),
        (Bernoulli(), MEAN, [0.1], [0.9]),
        # Newton from the dual-connection trial fails on these two (its shot
        # runs past eta = 1 at 16 RK4 steps, or misses by 4.8e3), and
        # starts again from the chord, which joins
        (Bernoulli(), MEAN, [0.3827115940572582], [0.9865634453251727]),
        (Categorical(3), NATURAL, [1.5613739347567195, 0.8494952584826246],
         [4.6547662516578105, 5.685423529424246]),
    ],
)
def test_geodesic_joins_near_the_boundary(fam, chart, a, b):
    path = L.geodesic(fam, chart, point(chart, *a), point(chart, *b), alpha=0, count=17, steps=16)
    assert np.array_equal(path.samples[0], a)
    assert np.max(np.abs(path.samples[-1] - b)) <= 1e-6


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
