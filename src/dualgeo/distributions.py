"""Parametrized probability families: potentials, chart maps, log-densities.

Three concrete families (1D Gaussian, Bernoulli, Categorical) expose a
natural-parameter chart and a mean-parameter chart (plus a raw (mu, sigma)
chart for the Gaussian).  Each family gives the log-partition psi and its
first three derivatives in closed form, together with the first and second
derivatives of every chart map into the natural chart; the mean-to-natural
Jacobian is the Hessian of the dual potential.  These are all the geometry
module needs for Fisher metrics and alpha-connections.  Scores and
log-density Hessians of single outcomes are transported from the natural
chart by the chain rule; expectations are exact sums for discrete families
and Gauss-Hermite quadrature for the Gaussian.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

NATURAL = "natural"
MEAN = "mean"
RAW = "raw"

class InvalidParameterError(ValueError):
    """Parameter coordinates outside the family's valid region."""


class BoundaryParameterError(InvalidParameterError):
    """Parameter exactly on the boundary (e.g. Bernoulli eta in {0, 1})."""


class SupportError(ValueError):
    """Outcome outside the family's sample space."""


class ChartError(ValueError):
    """Chart unknown to the family or mismatched with the operation."""


class NotExponentialFamilyChartError(ChartError):
    """Operation requires a natural or mean chart point."""


@dataclass(frozen=True)
class ParameterPoint:
    """Coordinates of a distribution in a named chart."""

    chart: str
    coords: np.ndarray

    def __post_init__(self):
        coords = np.atleast_1d(np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "coords", coords)
        if not np.all(np.isfinite(coords)):
            raise InvalidParameterError("coordinates must be finite")


def point(chart, *coords):
    """Shorthand constructor for a ParameterPoint."""
    return ParameterPoint(chart, np.asarray(coords, dtype=float))


class DistributionFamily(ABC):
    """Base class: exponential-family structure plus chart transport."""

    charts: tuple = (NATURAL, MEAN)

    @property
    @abstractmethod
    def dim(self):
        """Number of parameter coordinates."""

    @abstractmethod
    def validate(self, pt: ParameterPoint):
        """Raise if the point is not a valid interior point of its chart."""

    @abstractmethod
    def convert(self, pt: ParameterPoint, chart: str) -> ParameterPoint:
        """Exact closed-form chart change."""

    @abstractmethod
    def in_support(self, x) -> bool:
        ...

    # -- exponential-family potentials (natural chart) ------------------

    @abstractmethod
    def potential(self, theta) -> float:
        """Log-partition psi(theta)."""

    @abstractmethod
    def grad_potential(self, theta) -> np.ndarray:
        ...

    @abstractmethod
    def hess_potential(self, theta) -> np.ndarray:
        ...

    @abstractmethod
    def third_potential(self, theta) -> np.ndarray:
        """psi_abc(theta): the third cumulant tensor of the sufficient statistic."""

    @abstractmethod
    def dual_potential(self, eta) -> float:
        """Legendre dual phi(eta) = <theta(eta), eta> - psi(theta(eta))."""

    @abstractmethod
    def grad_dual_potential(self, eta) -> np.ndarray:
        ...

    @abstractmethod
    def hess_dual_potential(self, eta) -> np.ndarray:
        ...

    # -- log-density machinery ------------------------------------------

    @abstractmethod
    def log_density(self, pt: ParameterPoint, x) -> float:
        ...

    @abstractmethod
    def _score_natural(self, theta, x) -> np.ndarray:
        ...

    def _logp_hessian_natural(self, theta, x) -> np.ndarray:
        # d_i d_j log p = -d_i d_j psi for exponential families
        return -self.hess_potential(theta)

    def _natural_jacobian(self, pt: ParameterPoint) -> np.ndarray:
        """Jacobian d theta_a / d u_i of the map into the natural chart."""
        if pt.chart == NATURAL:
            return np.eye(self.dim)
        if pt.chart == MEAN:
            # theta(eta) = grad phi, so the Jacobian is the dual Hessian
            return self.hess_dual_potential(pt.coords)
        raise ChartError(f"no natural-chart Jacobian for chart {pt.chart!r}")

    def _natural_jacobian_derivative(self, pt: ParameterPoint) -> np.ndarray:
        """H[a, i, j] = d^2 theta_a / d u_i d u_j of the map into the natural chart."""
        if pt.chart == NATURAL:
            return np.zeros((self.dim,) * 3)
        if pt.chart == MEAN:
            # d phi'' = -phi'' (d psi'') phi'' and d psi''_de / d eta_j = psi_def phi''_fj
            jac = self.hess_dual_potential(pt.coords)
            psi3 = self.third_potential(self.grad_dual_potential(pt.coords))
            return -np.einsum("ad,def,ei,fj->aij", jac, psi3, jac, jac)
        raise ChartError(f"no natural-chart Jacobian for chart {pt.chart!r}")

    def score(self, pt: ParameterPoint, x) -> np.ndarray:
        """Gradient of log p w.r.t. the coordinates of pt's chart."""
        self.validate(pt)
        if not self.in_support(x):
            raise SupportError(f"outcome {x!r} outside support")
        theta = self.convert(pt, NATURAL).coords
        s = self._score_natural(theta, x)
        if pt.chart == NATURAL:
            return s
        return self._natural_jacobian(pt).T @ s

    def logp_hessian(self, pt: ParameterPoint, x) -> np.ndarray:
        """Second derivatives of log p w.r.t. pt's chart coordinates."""
        self.validate(pt)
        if not self.in_support(x):
            raise SupportError(f"outcome {x!r} outside support")
        theta = self.convert(pt, NATURAL).coords
        l2 = self._logp_hessian_natural(theta, x)
        if pt.chart == NATURAL:
            return l2
        s = self._score_natural(theta, x)
        jac = self._natural_jacobian(pt)
        hess = self._natural_jacobian_derivative(pt)
        return jac.T @ l2 @ jac + np.einsum("aij,a->ij", hess, s)

    @abstractmethod
    def expect(self, pt: ParameterPoint, f):
        """Expectation of f(x); exact for discrete, quadrature for Gaussian."""

    def sufficient_stat_mean(self, pt: ParameterPoint) -> np.ndarray:
        """Mean parameters eta = grad psi(theta)."""
        self.validate(pt)
        if pt.chart == MEAN:
            return pt.coords.copy()
        if pt.chart != NATURAL:
            raise NotExponentialFamilyChartError(
                f"chart {pt.chart!r} is not an exponential-family chart; convert first"
            )
        return self.grad_potential(pt.coords)

    @abstractmethod
    def kl(self, p: ParameterPoint, q: ParameterPoint) -> float:
        """Kullback-Leibler divergence D(p || q), in nats."""


class _DiscreteFamily(DistributionFamily):
    """Common machinery for finite-outcome families."""

    @abstractmethod
    def probs(self, pt: ParameterPoint) -> np.ndarray:
        """Outcome probabilities, indexed by outcome."""

    @property
    @abstractmethod
    def outcomes(self):
        ...

    def in_support(self, x) -> bool:
        return x in self.outcomes

    def log_density(self, pt: ParameterPoint, x) -> float:
        self.validate(pt)
        if not self.in_support(x):
            raise SupportError(f"outcome {x!r} outside support")
        return float(np.log(self.probs(pt)[int(x)]))

    def expect(self, pt: ParameterPoint, f):
        self.validate(pt)
        p = self.probs(pt)
        vals = [np.asarray(f(x), dtype=float) for x in self.outcomes]
        return sum(pi * v for pi, v in zip(p, vals))

    def kl(self, p: ParameterPoint, q: ParameterPoint) -> float:
        pp = self.probs(p)
        qq = self.probs(q)
        total = 0.0
        for pi, qi in zip(pp, qq):
            if pi == 0.0:
                continue
            if qi == 0.0:
                return float("inf")
            total += pi * np.log(pi / qi)
        return float(total)


class Bernoulli(_DiscreteFamily):
    """Coin flip; natural chart is the log-odds, mean chart the head probability."""

    charts = (NATURAL, MEAN)
    outcomes = (0, 1)

    @property
    def dim(self):
        return 1

    def validate(self, pt: ParameterPoint):
        if pt.chart not in self.charts:
            raise ChartError(f"unknown chart {pt.chart!r}")
        if pt.coords.shape != (1,):
            raise InvalidParameterError("Bernoulli has one parameter")
        if pt.chart == MEAN:
            eta = pt.coords[0]
            if eta in (0.0, 1.0):
                raise BoundaryParameterError("eta on the boundary {0, 1}")
            if not 0.0 < eta < 1.0:
                raise InvalidParameterError("eta must lie in (0, 1)")

    def convert(self, pt: ParameterPoint, chart: str) -> ParameterPoint:
        self.validate(pt)
        if chart == pt.chart:
            return pt
        if chart == NATURAL:
            eta = pt.coords[0]
            return point(NATURAL, np.log(eta / (1.0 - eta)))
        if chart == MEAN:
            theta = pt.coords[0]
            return point(MEAN, 1.0 / (1.0 + np.exp(-theta)))
        raise ChartError(f"unknown chart {chart!r}")

    def probs(self, pt: ParameterPoint) -> np.ndarray:
        eta = self.convert(pt, MEAN).coords[0]
        return np.array([1.0 - eta, eta])

    def potential(self, theta):
        return float(np.logaddexp(0.0, np.asarray(theta, dtype=float)[0]))

    def grad_potential(self, theta):
        t = np.asarray(theta, dtype=float)[0]
        return np.array([1.0 / (1.0 + np.exp(-t))])

    def hess_potential(self, theta):
        s = self.grad_potential(theta)[0]
        return np.array([[s * (1.0 - s)]])

    def third_potential(self, theta):
        s = self.grad_potential(theta)[0]
        return np.array([[[s * (1.0 - s) * (1.0 - 2.0 * s)]]])

    def dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)[0]
        return float(e * np.log(e) + (1.0 - e) * np.log(1.0 - e))

    def grad_dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)[0]
        return np.array([np.log(e / (1.0 - e))])

    def hess_dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)[0]
        return np.array([[1.0 / (e * (1.0 - e))]])

    def _score_natural(self, theta, x):
        return np.array([float(x) - self.grad_potential(theta)[0]])


class Categorical(_DiscreteFamily):
    """k outcomes; natural chart holds log-odds of the first k-1 against the last."""

    charts = (NATURAL, MEAN)

    def __init__(self, k: int):
        if k < 2:
            raise InvalidParameterError("Categorical needs at least 2 outcomes")
        self.k = int(k)

    @property
    def dim(self):
        return self.k - 1

    @property
    def outcomes(self):
        return tuple(range(self.k))

    def validate(self, pt: ParameterPoint):
        if pt.chart not in self.charts:
            raise ChartError(f"unknown chart {pt.chart!r}")
        if pt.coords.shape != (self.dim,):
            raise InvalidParameterError(f"expected {self.dim} coordinates")
        if pt.chart == MEAN:
            eta = pt.coords
            last = 1.0 - eta.sum()
            full = np.append(eta, last)
            if np.any((full == 0.0) | (full == 1.0)):
                raise BoundaryParameterError("probability on the boundary")
            if np.any((full <= 0.0) | (full >= 1.0)):
                raise InvalidParameterError("probabilities must lie in (0, 1)")

    def convert(self, pt: ParameterPoint, chart: str) -> ParameterPoint:
        self.validate(pt)
        if chart == pt.chart:
            return pt
        if chart == NATURAL:
            eta = pt.coords
            last = 1.0 - eta.sum()
            return ParameterPoint(NATURAL, np.log(eta / last))
        if chart == MEAN:
            return ParameterPoint(MEAN, self.grad_potential(pt.coords))
        raise ChartError(f"unknown chart {chart!r}")

    def probs(self, pt: ParameterPoint) -> np.ndarray:
        if pt.chart == MEAN:
            eta = pt.coords
            return np.append(eta, 1.0 - eta.sum())
        return _softmax(pt.coords)

    def potential(self, theta):
        z = np.append(np.asarray(theta, dtype=float), 0.0)
        return float(logsumexp(z))

    def grad_potential(self, theta):
        return _softmax(theta)[:-1]

    def hess_potential(self, theta):
        p = self.grad_potential(theta)
        return np.diag(p) - np.outer(p, p)

    def third_potential(self, theta):
        # psi_ab = p_a n_ab with n_ab = delta_ab - p_b, and d p_a / d theta_c = p_a n_ac:
        # psi_abc = d_abc p_a - d_ab p_a p_c - d_ac p_a p_b - d_bc p_a p_b + 2 p_a p_b p_c
        p = self.grad_potential(theta)
        n = np.eye(p.size) - p
        return p[:, None, None] * (n[:, :, None] * n[:, None, :] - p[None, :, None] * n)

    def dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)
        last = 1.0 - e.sum()
        full = np.append(e, last)
        return float(np.sum(full * np.log(full)))

    def grad_dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)
        last = 1.0 - e.sum()
        return np.log(e / last)

    def hess_dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)
        last = 1.0 - e.sum()
        return np.diag(1.0 / e) + 1.0 / last

    def _score_natural(self, theta, x):
        t = np.zeros(self.dim)
        if int(x) < self.dim:
            t[int(x)] = 1.0
        return t - self.grad_potential(theta)


def _softmax(theta):
    """Probabilities of all k outcomes from the k-1 log-odds against the last."""
    z = np.append(np.asarray(theta, dtype=float), 0.0)
    e = np.exp(z - z.max())
    return e / e.sum()


class Gaussian1D(DistributionFamily):
    """Normal distribution on the line with raw, natural, and mean charts.

    raw:     (mu, sigma), sigma > 0
    natural: (mu / sigma^2, -1 / (2 sigma^2))
    mean:    (E[x], E[x^2]) = (mu, mu^2 + sigma^2)
    """

    charts = (RAW, NATURAL, MEAN)
    _gh_nodes, _gh_weights = np.polynomial.hermite.hermgauss(64)

    @property
    def dim(self):
        return 2

    def validate(self, pt: ParameterPoint):
        if pt.chart not in self.charts:
            raise ChartError(f"unknown chart {pt.chart!r}")
        if pt.coords.shape != (2,):
            raise InvalidParameterError("Gaussian1D has two parameters")
        if pt.chart == RAW:
            if pt.coords[1] == 0.0:
                raise BoundaryParameterError("sigma = 0")
            if pt.coords[1] < 0.0:
                raise InvalidParameterError("sigma must be positive")
        elif pt.chart == NATURAL:
            if pt.coords[1] >= 0.0:
                raise InvalidParameterError("second natural parameter must be negative")
        elif pt.chart == MEAN:
            if pt.coords[1] - pt.coords[0] ** 2 <= 0.0:
                raise InvalidParameterError("variance eta2 - eta1^2 must be positive")

    def _raw(self, pt: ParameterPoint):
        if pt.chart == RAW:
            return float(pt.coords[0]), float(pt.coords[1])
        if pt.chart == NATURAL:
            t1, t2 = pt.coords
            sigma2 = -1.0 / (2.0 * t2)
            return float(t1 * sigma2), float(np.sqrt(sigma2))
        e1, e2 = pt.coords
        return float(e1), float(np.sqrt(e2 - e1**2))

    def convert(self, pt: ParameterPoint, chart: str) -> ParameterPoint:
        self.validate(pt)
        if chart == pt.chart:
            return pt
        mu, sigma = self._raw(pt)
        if chart == RAW:
            return point(RAW, mu, sigma)
        if chart == NATURAL:
            return point(NATURAL, mu / sigma**2, -1.0 / (2.0 * sigma**2))
        if chart == MEAN:
            return point(MEAN, mu, mu**2 + sigma**2)
        raise ChartError(f"unknown chart {chart!r}")

    def in_support(self, x) -> bool:
        return np.isfinite(x)

    def log_density(self, pt: ParameterPoint, x) -> float:
        self.validate(pt)
        if not self.in_support(x):
            raise SupportError(f"outcome {x!r} outside support")
        mu, sigma = self._raw(pt)
        return float(
            -0.5 * np.log(2.0 * np.pi) - np.log(sigma) - 0.5 * ((x - mu) / sigma) ** 2
        )

    def expect(self, pt: ParameterPoint, f):
        self.validate(pt)
        mu, sigma = self._raw(pt)
        xs = mu + np.sqrt(2.0) * sigma * self._gh_nodes
        w = self._gh_weights / np.sqrt(np.pi)
        vals = [np.asarray(f(x), dtype=float) for x in xs]
        return sum(wi * v for wi, v in zip(w, vals))

    def potential(self, theta):
        t1, t2 = np.asarray(theta, dtype=float)
        return float(-(t1**2) / (4.0 * t2) - 0.5 * np.log(-2.0 * t2))

    def grad_potential(self, theta):
        t1, t2 = np.asarray(theta, dtype=float)
        return np.array([-t1 / (2.0 * t2), t1**2 / (4.0 * t2**2) - 1.0 / (2.0 * t2)])

    def hess_potential(self, theta):
        t1, t2 = np.asarray(theta, dtype=float)
        return np.array(
            [
                [-1.0 / (2.0 * t2), t1 / (2.0 * t2**2)],
                [t1 / (2.0 * t2**2), -(t1**2) / (2.0 * t2**3) + 1.0 / (2.0 * t2**2)],
            ]
        )

    def third_potential(self, theta):
        t1, t2 = np.asarray(theta, dtype=float)
        p112 = 1.0 / (2.0 * t2**2)
        p122 = -t1 / t2**3
        p222 = 1.5 * t1**2 / t2**4 - 1.0 / t2**3
        return np.array([[[0.0, p112], [p112, p122]], [[p112, p122], [p122, p222]]])

    def dual_potential(self, eta):
        e1, e2 = np.asarray(eta, dtype=float)
        return float(-0.5 * (1.0 + np.log(e2 - e1**2)))

    def grad_dual_potential(self, eta):
        e1, e2 = np.asarray(eta, dtype=float)
        v = e2 - e1**2
        return np.array([e1 / v, -1.0 / (2.0 * v)])

    def hess_dual_potential(self, eta):
        e1, e2 = np.asarray(eta, dtype=float)
        v = e2 - e1**2
        return np.array(
            [
                [1.0 / v + 2.0 * e1**2 / v**2, -e1 / v**2],
                [-e1 / v**2, 1.0 / (2.0 * v**2)],
            ]
        )

    def _score_natural(self, theta, x):
        eta = self.grad_potential(theta)
        return np.array([x, x**2]) - eta

    def _natural_jacobian(self, pt: ParameterPoint) -> np.ndarray:
        if pt.chart == RAW:
            mu, sigma = pt.coords
            return np.array(
                [[1.0 / sigma**2, -2.0 * mu / sigma**3], [0.0, 1.0 / sigma**3]]
            )
        return super()._natural_jacobian(pt)

    def _natural_jacobian_derivative(self, pt: ParameterPoint) -> np.ndarray:
        if pt.chart == RAW:
            # theta = (mu / sigma^2, -1 / (2 sigma^2))
            mu, sigma = pt.coords
            s3, s4 = sigma**3, sigma**4
            return np.array(
                [[[0.0, -2.0 / s3], [-2.0 / s3, 6.0 * mu / s4]], [[0.0, 0.0], [0.0, -3.0 / s4]]]
            )
        return super()._natural_jacobian_derivative(pt)

    def kl(self, p: ParameterPoint, q: ParameterPoint) -> float:
        mu1, s1 = self._raw(p)
        mu2, s2 = self._raw(q)
        return float(
            np.log(s2 / s1) + (s1**2 + (mu1 - mu2) ** 2) / (2.0 * s2**2) - 0.5
        )
