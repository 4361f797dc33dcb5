"""Chart maps, potentials, scores, and KL for the concrete families."""
import numpy as np
import pytest

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
