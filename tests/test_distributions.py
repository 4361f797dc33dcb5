"""Chart maps, potentials, scores, and KL for the concrete families."""
import mpmath
import numpy as np
import pytest
from scipy.special import expit, log_expit, logsumexp, xlogy

from dualgeo.distributions import (
    MEAN,
    NATURAL,
    RAW,
    Bernoulli,
    BoundaryParameterError,
    Categorical,
    ChartError,
    Gaussian1D,
    InvalidParameterError,
    ParameterPoint,
    SupportError,
    _logsumexp,
    _xlogx,
    point,
)

RNG = np.random.default_rng(20240817)


# -- Bernoulli ----------------------------------------------------------


def test_bernoulli_chart_round_trip():
    fam = Bernoulli()
    for eta in (0.05, 0.3, 0.5, 0.92):
        p = point(MEAN, eta)
        back = fam.convert(fam.convert(p, NATURAL), MEAN)
        assert abs(back.coords[0] - eta) < 1e-14


def test_bernoulli_natural_is_log_odds():
    fam = Bernoulli()
    theta = fam.convert(point(MEAN, 0.3), NATURAL).coords[0]
    assert abs(theta - np.log(0.3 / 0.7)) < 1e-15


def test_bernoulli_potential_pair():
    fam = Bernoulli()
    theta = np.array([0.7])
    eta = fam.grad_potential(theta)
    # psi(theta) = log(1 + e^theta), phi(eta) = negative entropy
    assert abs(fam.potential(theta) - np.log1p(np.exp(0.7))) < 1e-15
    phi = eta[0] * np.log(eta[0]) + (1 - eta[0]) * np.log(1 - eta[0])
    assert abs(fam.dual_potential(eta) - phi) < 1e-15
    # Legendre identity psi + phi = <theta, eta>
    assert abs(fam.potential(theta) + fam.dual_potential(eta) - 0.7 * eta[0]) < 1e-14


def test_bernoulli_score_zero_mean():
    fam = Bernoulli()
    for chart in (NATURAL, MEAN):
        pt = fam.convert(point(MEAN, 0.37), chart)
        mean_score = fam.expect(pt, lambda x: fam.score(pt, x))
        assert np.max(np.abs(mean_score)) < 1e-14


def test_bernoulli_kl_closed_form():
    fam = Bernoulli()
    p, q = point(MEAN, 0.3), point(MEAN, 0.6)
    oracle = 0.3 * np.log(0.3 / 0.6) + 0.7 * np.log(0.7 / 0.4)
    assert abs(fam.kl(p, q) - oracle) < 1e-15


def test_bernoulli_boundary_rejected():
    fam = Bernoulli()
    with pytest.raises(BoundaryParameterError):
        fam.validate(point(MEAN, 0.0))
    with pytest.raises(InvalidParameterError):
        fam.validate(point(MEAN, 1.3))
    with pytest.raises(ChartError):
        fam.validate(point("polar", 0.5))


def test_bernoulli_support():
    fam = Bernoulli()
    with pytest.raises(SupportError):
        fam.score(point(MEAN, 0.5), 2)
    assert fam.in_support(0) and fam.in_support(1)


# -- Categorical --------------------------------------------------------


def test_categorical_probs_and_charts():
    fam = Categorical(4)
    eta = np.array([0.1, 0.2, 0.3])
    pt = ParameterPoint(MEAN, eta)
    p = fam.probs(pt)
    assert abs(p.sum() - 1.0) < 1e-14
    assert np.allclose(p, [0.1, 0.2, 0.3, 0.4])
    back = fam.convert(fam.convert(pt, NATURAL), MEAN)
    assert np.max(np.abs(back.coords - eta)) < 1e-14


def test_categorical_potential_hessian_is_covariance():
    fam = Categorical(3)
    theta = np.array([0.4, -0.2])
    p = fam.probs(ParameterPoint(NATURAL, theta))
    oracle = np.diag(p[:2]) - np.outer(p[:2], p[:2])
    assert np.max(np.abs(fam.hess_potential(theta) - oracle)) < 1e-14


def test_categorical_kl_matches_direct_sum():
    fam = Categorical(3)
    p = ParameterPoint(MEAN, np.array([0.2, 0.3]))
    q = ParameterPoint(MEAN, np.array([0.5, 0.25]))
    pp, qq = fam.probs(p), fam.probs(q)
    oracle = float(np.sum(pp * np.log(pp / qq)))
    assert abs(fam.kl(p, q) - oracle) < 1e-14


@pytest.mark.parametrize(
    "fam, theta",
    [(Bernoulli(), [[-3.0], [0.4]]), (Categorical(4), [[0.3, -2.0, 1.0], [5.0, 0.0, -5.0]])],
    ids=["bernoulli", "categorical"],
)
def test_log_probs_agree_across_charts(fam, theta):
    # log-sigmoid and log-softmax in the natural chart, the log of probs in the mean chart
    nat = ParameterPoint(NATURAL, np.array(theta))
    lp = fam.log_probs(nat)
    assert lp.shape == (2, len(fam.outcomes))
    # measured 3.4e-14: the mean chart's last probability, 1 - the others' sum,
    # carries eps / p_k
    assert np.max(np.abs(lp - fam.log_probs(fam.convert(nat, MEAN)))) < 1e-13
    assert np.max(np.abs(np.exp(lp) - fam.probs(nat))) < 1e-15


def test_categorical_needs_two_outcomes():
    with pytest.raises(InvalidParameterError):
        Categorical(1)


# -- Gaussian -----------------------------------------------------------


def test_gaussian_chart_round_trips():
    fam = Gaussian1D()
    raw = point(RAW, 0.7, 1.3)
    for chart in (NATURAL, MEAN):
        back = fam.convert(fam.convert(raw, chart), RAW)
        assert np.max(np.abs(back.coords - raw.coords)) < 1e-12


def test_gaussian_natural_coordinates():
    fam = Gaussian1D()
    nat = fam.convert(point(RAW, 2.0, 0.5), NATURAL)
    assert np.allclose(nat.coords, [2.0 / 0.25, -1.0 / 0.5])


def test_gaussian_mean_coordinates_are_moments():
    fam = Gaussian1D()
    pt = point(RAW, 0.4, 1.1)
    eta = fam.convert(pt, MEAN).coords
    m1 = fam.expect(pt, lambda x: x)
    m2 = fam.expect(pt, lambda x: x**2)
    assert abs(eta[0] - m1) < 1e-12
    assert abs(eta[1] - m2) < 1e-12


def test_gaussian_potential_gradient_is_mean_map():
    fam = Gaussian1D()
    theta = np.array([1.0, -0.5])
    eta = fam.grad_potential(theta)
    # mu = 1, sigma^2 = 1: moments (1, 2)
    assert np.allclose(eta, [1.0, 2.0])
    back = fam.grad_dual_potential(eta)
    assert np.max(np.abs(back - theta)) < 1e-12


def test_gaussian_score_zero_mean_all_charts():
    fam = Gaussian1D()
    for chart in (RAW, NATURAL, MEAN):
        pt = fam.convert(point(RAW, -0.3, 0.8), chart)
        mean_score = fam.expect(pt, lambda x: fam.score(pt, x))
        assert np.max(np.abs(mean_score)) < 1e-8


def test_gaussian_logp_hessian_bartlett():
    # E[hessian of log p] = -Fisher metric, in any chart
    fam = Gaussian1D()
    for chart in (RAW, NATURAL, MEAN):
        pt = fam.convert(point(RAW, 0.2, 1.4), chart)
        h = fam.expect(pt, lambda x: fam.logp_hessian(pt, x))
        g = fam.expect(pt, lambda x: np.outer(fam.score(pt, x), fam.score(pt, x)))
        assert np.max(np.abs(h + g)) < 1e-6


def test_gaussian_kl_closed_form():
    fam = Gaussian1D()
    p, q = point(RAW, 0.0, 1.0), point(RAW, 1.0, 2.0)
    oracle = np.log(2.0) + (1.0 + 1.0) / 8.0 - 0.5
    assert abs(fam.kl(p, q) - oracle) < 1e-14


def test_gaussian_validation():
    fam = Gaussian1D()
    with pytest.raises(BoundaryParameterError):
        fam.validate(point(RAW, 0.0, 0.0))
    with pytest.raises(InvalidParameterError):
        fam.validate(point(RAW, 0.0, -1.0))
    with pytest.raises(InvalidParameterError):
        fam.validate(point(NATURAL, 0.0, 0.5))
    with pytest.raises(InvalidParameterError):
        fam.validate(point(MEAN, 2.0, 1.0))


def test_categorical_mean_validation_survives_an_overflowing_sum():
    with np.errstate(all="raise"), pytest.raises(InvalidParameterError, match="must lie in"):
        Categorical(4).validate(point(MEAN, -1e308, -1e308, 1e-300))


def test_parameter_point_rejects_nonfinite():
    with pytest.raises(InvalidParameterError):
        point(MEAN, np.inf)


def test_discrete_kl_blows_up_toward_support_loss():
    fam = Categorical(3)
    p = ParameterPoint(MEAN, np.array([0.2, 0.3]))
    # q concentrates on the first outcome; KL stays finite but grows large
    q = ParameterPoint(NATURAL, np.array([50.0, 0.0]))
    assert np.isfinite(fam.kl(p, q))
    assert fam.kl(p, q) > 10.0


def test_gaussian_dual_potential_is_taken_from_the_points_chart():
    fam = Gaussian1D()
    # where eta2 - eta1^2 keeps sigma^2, every chart gives phi(eta); measured
    # at most 1 ulp apart, bound 2 ulps of the largest value
    raw = np.array([[0.0, 1.0], [0.3, 2.0], [-4.0, 0.5], [1e3, 7.0]])
    phi = fam.dual_potential(fam.convert(ParameterPoint(RAW, raw), MEAN).coords)
    for chart in (RAW, NATURAL, MEAN):
        got = fam.dual_potential_at(fam.convert(ParameterPoint(RAW, raw), chart))
        assert np.all(np.abs(got - phi) <= 2 * np.spacing(np.max(np.abs(phi))))
    # at |mu| / sigma = 8e18 the variance eta2 - eta1^2 rounds to 0, and the
    # raw chart still holds sigma: phi = -1/2 - log(1e-16)
    assert fam.dual_potential_at(point(RAW, 800.0, 1e-16)) == -0.5 - np.log(1e-16)
    # the discrete families take phi of the mean coordinates
    assert Bernoulli().dual_potential_at(point(NATURAL, 0.0)) == Bernoulli().dual_potential(np.array([0.5]))


# -- numpy forms of the special functions -----------------------------------
#
# scipy.special is the oracle here and nowhere in the library: `expit` for the
# Bernoulli sigmoid, `log_expit` for its log-probabilities, `logsumexp` for
# the Categorical potential and `xlogy` for x log x in the dual potentials.

TINY = np.finfo(float).tiny
EPS = np.finfo(float).eps
# every 0.5 from -745 to 745 with the saturation edges of both tails: the
# sigmoid rounds to 1 past 36.7 and e^t underflows below 2.2e-308 past -708.4,
# expit rounds to 0 past -709.78 and e^t to 0 past -745.1
LOGITS = np.concatenate([
    np.linspace(-745.0, 745.0, 2981),
    [s * m for s in (-1.0, 1.0) for m in (0.0, 1e-300, 1e-12, 36.7, 37.0, 708.4, 709.78, 709.79, 744.5, 745.2, 800.0)],
])


def test_sigmoid_matches_expit():
    got = Bernoulli().grad_potential(LOGITS[:, None])[:, 0]
    ref = expit(LOGITS)
    # measured at most 2 ulps where expit is a normal number; the bound is 4
    normal = ref >= TINY
    assert np.all(np.abs(got - ref)[normal] <= 4 * np.spacing(ref[normal]))
    # below that expit rounds to 0 past -709.78, where the sigmoid is e^t to
    # rounding: e / (1 + e) keeps it exactly, subnormal down to -745.1
    assert np.array_equal(got[~normal], np.exp(LOGITS[~normal]))


def test_log_probs_match_log_expit():
    got = Bernoulli().log_probs(ParameterPoint(NATURAL, LOGITS[:, None]))
    ref = np.stack([log_expit(-LOGITS), log_expit(LOGITS)], axis=-1)
    # measured bit-identical; the bound allows 2 ulps
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))


def test_categorical_potential_matches_logsumexp():
    rng = np.random.default_rng(26)
    theta = np.concatenate([
        rng.uniform(-745.0, 745.0, (400, 4)),
        rng.normal(0.0, 1.0, (400, 4)),
        # one outcome far above the others, ties at the top, a spread beyond
        # the largest double, log-odds whose terms underflow
        [[-40.0] * 4, [40.0, 40.0, 0.0, 1e-300], [0.0] * 4, [1e308, -1e308, 0.0, 0.0], [-745.0] * 4, [-1e308] * 4],
    ])
    z = np.concatenate([theta, np.zeros((len(theta), 1))], axis=-1)
    with np.errstate(over="ignore"):
        ref = logsumexp(z, axis=-1)
        got = _logsumexp(z)
    # measured bit-identical, psi = 1.7e-17 at log-odds -40 included; the
    # bound allows 2 ulps
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))
    assert np.array_equal(Categorical(5).potential(theta[:-2]), got[:-2])
    # the last outcome's 0 against log-odds -inf: log 1 = 0, as logsumexp
    assert _logsumexp(np.array([-np.inf, -np.inf, 0.0])) == 0.0


def test_x_log_x_matches_xlogy():
    rng = np.random.default_rng(27)
    x = np.concatenate([[0.0, 5e-324, 1e-310, TINY, 1e-300, 0.5, 1.0 - EPS, 1.0],
                        rng.uniform(0.0, 1.0, 2000), 10.0 ** rng.uniform(-320.0, 0.0, 2000)])
    got, ref = _xlogx(x), xlogy(x, x)
    # measured 1 ulp (numpy's log against the C library's); the bound is 2
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))
    assert _xlogx(0.0) == 0.0
    assert Bernoulli().dual_potential(np.array([0.0])) == Bernoulli().dual_potential(np.array([1.0])) == 0.0


# -- Bernoulli derivatives against 50-digit references -----------------------
#
# psi'' = 1 / (2 + 2 cosh t), psi''' = -psi'' tanh(t / 2) and the sigmoid
# 1 / (1 + e^-t) in mpmath at 50 digits.  s r (r - s) from rounded sigmoids
# s and r = 1 - s was 8.9e-5 off psi''' at t = 1e-12 and 1 (all digits) at
# t = 1e-300.


def bernoulli_reference(t):
    with mpmath.workdps(50):
        t = mpmath.mpf(float(t))
        hess = 1 / (2 + 2 * mpmath.cosh(t))
        return float(1 / (1 + mpmath.exp(-t))), float(hess), float(-hess * mpmath.tanh(t / 2)), 2 + 2 * mpmath.cosh(t)


def test_bernoulli_derivatives_near_zero_and_in_the_tails():
    mags = np.concatenate([[0.0], np.geomspace(1e-300, 700.0, 300)])
    t = np.concatenate([-mags[::-1], mags])
    ref = [bernoulli_reference(v) for v in t]
    u, x = 1.7, -0.3
    fam, col = Bernoulli(), t[:, None]
    checks = [
        (fam.grad_potential(col)[:, 0], [r[0] for r in ref]),
        (fam.hess_potential(col)[:, 0, 0], [r[1] for r in ref]),
        (fam.cubic_form(col, np.ones_like(col))[:, 0], [r[2] for r in ref]),
        (fam.cubic_form(col, np.full_like(col, u))[:, 0], [r[2] * u * u for r in ref]),
        (fam.hess_potential_solve(col, np.full_like(col, x))[:, 0], [float(x * r[3]) for r in ref]),
    ]
    # measured relative error, in units of eps: sigmoid 1.0, psi'' 1.0,
    # psi''' (the cubic form at u = 1) 2.4, cubic form 2.3, solve 0.9; the
    # bound is 4
    for got, want in checks:
        want = np.array(want)
        assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want))


def test_bernoulli_derivatives_where_psi_hess_is_subnormal():
    # psi'' falls below 2.2e-308 past |t| = 708.4 and to 0 past 745.1; e and
    # cosh(t / 2) stay finite, so nothing overflows or warns
    far = np.concatenate([np.linspace(700.0, 746.0, 461), [708.4, 709.78, 709.79, 744.4, 745.1]])
    t = np.concatenate([-far, far])
    ref = np.array([bernoulli_reference(v)[:3] for v in t])
    u, fam, col = 1.7, Bernoulli(), t[:, None]
    checks = [
        (fam.hess_potential(col)[:, 0, 0], ref[:, 1]),
        (fam.cubic_form(col, np.ones_like(col))[:, 0], ref[:, 2]),
        (fam.cubic_form(col, np.full_like(col, u))[:, 0], ref[:, 2] * u * u),
    ]
    # measured: at most 1.9 eps relative where the reference is normal, and
    # 3 units of the smallest subnormal, 4.9e-324, where it is not (the cubic
    # form rounds u^2 times a subnormal); the bounds are 4 eps and 6 units
    for got, want in checks:
        normal = np.abs(want) >= TINY
        assert np.all(np.abs(got - want)[normal] <= 4 * EPS * np.abs(want[normal]))
        assert np.all(np.abs(got - want)[~normal] <= 6 * 5e-324)
