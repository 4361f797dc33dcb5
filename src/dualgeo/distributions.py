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

Batch convention: coordinates have shape (..., d), the leading axes a batch
of points (a sampled path, a difference stencil).  `validate`, `convert`,
`probs`, `kl`, the Jacobian of the map into the natural chart and the
potentials with their derivatives act on a whole batch in one call, and a
single point is the no-batch case, coordinates of shape (d,), of the same
code.  A matrix-valued map returns (..., d, d); a scalar-valued one returns
a float for a single point and an array of the batch shape otherwise.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import log_expit, logsumexp, xlogy

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
    """Coordinates of a distribution in a named chart: shape (d,) for one
    point, (..., d) for a batch of points in the same chart."""

    chart: str
    coords: np.ndarray

    def __post_init__(self):
        coords = np.atleast_1d(np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "coords", coords)
        if not np.isfinite(coords).all():
            raise InvalidParameterError("coordinates must be finite")


def point(chart, *coords):
    """Shorthand constructor for a ParameterPoint."""
    return ParameterPoint(chart, np.asarray(coords, dtype=float))


def _scalar(x):
    """A float for an unbatched result, the array of the batch shape otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _components(x):
    """The components of x along its last axis, each of the batch shape:
    numpy scalars for a single point, which keeps its arithmetic scalar."""
    return tuple(x) if x.ndim == 1 else tuple(np.moveaxis(x, -1, 0))


def _all(mask):
    """mask.all(), without the array reduction for a single point's scalar."""
    return bool(mask) if mask.ndim == 0 else bool(mask.all())


def _pack(nested, batch):
    """Array of shape batch + s from a nested list of shape s whose entries
    are scalars (no batch) or arrays of the batch shape."""
    a = np.array(nested)
    if batch:
        r = a.ndim - len(batch)
        a = np.moveaxis(a, tuple(range(r)), tuple(range(-r, 0)))
    return a


class DistributionFamily(ABC):
    """Base class: exponential-family structure plus chart transport."""

    charts: tuple = (NATURAL, MEAN)

    @property
    @abstractmethod
    def dim(self):
        """Number of parameter coordinates."""

    @abstractmethod
    def validate(self, pt: ParameterPoint):
        """Raise if any point of pt is not a valid interior point of its chart."""

    def convert(self, pt: ParameterPoint, chart: str) -> ParameterPoint:
        """Exact closed-form chart change of every point of pt."""
        self.validate(pt)
        if chart == pt.chart:
            return pt
        return ParameterPoint(chart, self._coords_in(pt, chart))

    def _coords_in(self, pt: ParameterPoint, chart: str) -> np.ndarray:
        """Coordinates in another chart of the points of pt, validated by the
        caller.  Natural and mean coordinates are Legendre duals: eta = grad
        psi(theta) and theta = grad phi(eta)."""
        if chart == MEAN and pt.chart == NATURAL:
            return self.grad_potential(pt.coords)
        if chart == NATURAL and pt.chart == MEAN:
            return self.grad_dual_potential(pt.coords)
        raise ChartError(f"unknown chart {chart!r}")

    @abstractmethod
    def in_support(self, x) -> bool:
        ...

    # -- exponential-family potentials (natural chart) ------------------

    @abstractmethod
    def potential(self, theta):
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
    def dual_potential(self, eta):
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
        """Jacobian d theta_a / d u_i of the map into the natural chart, (..., d, d)."""
        if pt.chart == NATURAL:
            eye = np.eye(self.dim)
            return eye if pt.coords.ndim == 1 else np.broadcast_to(eye, pt.coords.shape + (self.dim,))
        if pt.chart == MEAN:
            # theta(eta) = grad phi, so the Jacobian is the dual Hessian
            return self.hess_dual_potential(pt.coords)
        raise ChartError(f"no natural-chart Jacobian for chart {pt.chart!r}")

    def _natural_jacobian_derivative(self, pt: ParameterPoint, jac=None, psi3=None) -> np.ndarray:
        """H[a, i, j] = d^2 theta_a / d u_i d u_j of the map into the natural
        chart at one point.  A caller that holds the Jacobian and psi'''(theta)
        at pt passes them in, so the mean chart does not recompute them."""
        if pt.chart == NATURAL:
            return np.zeros((self.dim,) * 3)
        if pt.chart == MEAN:
            # d phi'' = -phi'' (d psi'') phi'' and d psi''_de / d eta_j = psi_def phi''_fj
            if jac is None:
                jac = self.hess_dual_potential(pt.coords)
            if psi3 is None:
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
    def kl(self, p: ParameterPoint, q: ParameterPoint):
        """Kullback-Leibler divergence D(p || q) in nats, for paired points
        whose batch shapes broadcast."""


class _DiscreteFamily(DistributionFamily):
    """Common machinery for finite-outcome families."""

    @abstractmethod
    def probs(self, pt: ParameterPoint) -> np.ndarray:
        """Outcome probabilities, indexed by outcome on the last axis."""

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
        return _scalar(np.log(self.probs(pt)[..., int(x)]))

    def expect(self, pt: ParameterPoint, f):
        self.validate(pt)
        p = self.probs(pt)
        vals = [np.asarray(f(x), dtype=float) for x in self.outcomes]
        return sum(pi * v for pi, v in zip(p, vals))

    def kl(self, p: ParameterPoint, q: ParameterPoint):
        return _scalar(np.sum(self._kl_terms(p, q), axis=-1))

    def _kl_terms(self, p, q):
        """p(x) log(p(x) / q(x)) per outcome: 0 where p(x) = 0, inf where only q(x) = 0."""
        pp = self.probs(p)
        qq = self.probs(q)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(pp == 0.0, 0.0, pp * np.log(pp / qq))


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
        if pt.coords.shape[-1] != 1:
            raise InvalidParameterError("Bernoulli has one parameter")
        if pt.chart == MEAN:
            (eta,) = _components(pt.coords)
            if not _all((eta > 0.0) & (eta < 1.0)):
                if not _all((eta != 0.0) & (eta != 1.0)):
                    raise BoundaryParameterError("eta on the boundary {0, 1}")
                raise InvalidParameterError("eta must lie in (0, 1)")

    def probs(self, pt: ParameterPoint) -> np.ndarray:
        eta = self.convert(pt, MEAN).coords
        return np.concatenate([1.0 - eta, eta], axis=-1)

    def _kl_terms(self, p, q):
        if p.chart == q.chart == NATURAL:
            # log-sigmoid log-probabilities stay exact where the sigmoid rounds to 0 or 1
            lp = np.concatenate([log_expit(-p.coords), log_expit(p.coords)], axis=-1)
            lq = np.concatenate([log_expit(-q.coords), log_expit(q.coords)], axis=-1)
            return np.exp(lp) * (lp - lq)
        return super()._kl_terms(p, q)

    def potential(self, theta):
        return _scalar(np.logaddexp(0.0, np.asarray(theta, dtype=float)[..., 0]))

    def grad_potential(self, theta):
        return 1.0 / (1.0 + np.exp(-np.asarray(theta, dtype=float)))

    def hess_potential(self, theta):
        s = self.grad_potential(theta)
        return (s * (1.0 - s))[..., None]

    def third_potential(self, theta):
        s = self.grad_potential(theta)
        return (s * (1.0 - s) * (1.0 - 2.0 * s))[..., None, None]

    def dual_potential(self, eta):
        # xlogy keeps 0 log 0 = 0 where a saturated sigmoid gives eta in {0, 1}
        e = np.asarray(eta, dtype=float)[..., 0]
        return _scalar(xlogy(e, e) + xlogy(1.0 - e, 1.0 - e))

    def grad_dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)
        return np.log(e / (1.0 - e))

    def hess_dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)
        return (1.0 / (e * (1.0 - e)))[..., None]

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
        if pt.coords.shape[-1] != self.dim:
            raise InvalidParameterError(f"expected {self.dim} coordinates")
        if pt.chart == MEAN:
            full = _with_last(pt.coords)
            if not _all((full > 0.0) & (full < 1.0)):
                if not _all((full != 0.0) & (full != 1.0)):
                    raise BoundaryParameterError("probability on the boundary")
                raise InvalidParameterError("probabilities must lie in (0, 1)")

    def probs(self, pt: ParameterPoint) -> np.ndarray:
        if pt.chart == MEAN:
            return _with_last(pt.coords)
        return _softmax(pt.coords)

    def potential(self, theta):
        return _scalar(logsumexp(_append_zero(theta), axis=-1))

    def grad_potential(self, theta):
        return _softmax(theta)[..., :-1]

    def hess_potential(self, theta):
        p = self.grad_potential(theta)
        return p[..., :, None] * np.eye(p.shape[-1]) - p[..., :, None] * p[..., None, :]

    def third_potential(self, theta):
        # psi_ab = p_a n_ab with n_ab = delta_ab - p_b, and d p_a / d theta_c = p_a n_ac:
        # psi_abc = d_abc p_a - d_ab p_a p_c - d_ac p_a p_b - d_bc p_a p_b + 2 p_a p_b p_c
        p = self.grad_potential(theta)
        n = np.eye(p.shape[-1]) - p[..., None, :]
        pn = p[..., :, None] * n
        return p[..., :, None, None] * (n[..., :, :, None] * n[..., :, None, :] - pn[..., None, :, :])

    def dual_potential(self, eta):
        full = _with_last(np.asarray(eta, dtype=float))
        return _scalar(np.sum(xlogy(full, full), axis=-1))

    def grad_dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)
        last = 1.0 - e.sum(axis=-1)
        return np.log(e / last[..., None])

    def hess_dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)
        last = 1.0 - e.sum(axis=-1)
        return (1.0 / e)[..., :, None] * np.eye(e.shape[-1]) + (1.0 / last)[..., None, None]

    def _score_natural(self, theta, x):
        t = np.zeros(self.dim)
        if int(x) < self.dim:
            t[int(x)] = 1.0
        return t - self.grad_potential(theta)


def _with_last(eta):
    """All k probabilities from the first k-1."""
    return np.concatenate([eta, 1.0 - eta.sum(axis=-1, keepdims=True)], axis=-1)


def _append_zero(theta):
    theta = np.asarray(theta, dtype=float)
    return np.concatenate([theta, np.zeros(theta.shape[:-1] + (1,))], axis=-1)


def _softmax(theta):
    """Probabilities of all k outcomes from the k-1 log-odds against the last."""
    z = _append_zero(theta)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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
        c = pt.coords
        if c.shape[-1] != 2:
            raise InvalidParameterError("Gaussian1D has two parameters")
        first, second = _components(c)
        if pt.chart == RAW:
            if not _all(second > 0.0):
                if not _all(second != 0.0):
                    raise BoundaryParameterError("sigma = 0")
                raise InvalidParameterError("sigma must be positive")
        elif pt.chart == NATURAL:
            if not _all(second < 0.0):
                raise InvalidParameterError("second natural parameter must be negative")
        elif pt.chart == MEAN:
            if not _all(second - first**2 > 0.0):
                raise InvalidParameterError("variance eta2 - eta1^2 must be positive")

    def _raw(self, pt: ParameterPoint):
        """(mu, sigma), each of the batch shape."""
        a, b = _components(pt.coords)
        if pt.chart == RAW:
            return a, b
        if pt.chart == NATURAL:
            sigma2 = -1.0 / (2.0 * b)
            return a * sigma2, np.sqrt(sigma2)
        return a, np.sqrt(b - a**2)

    def _coords_in(self, pt: ParameterPoint, chart: str) -> np.ndarray:
        mu, sigma = self._raw(pt)
        batch = pt.coords.shape[:-1]
        if chart == RAW:
            return _pack([mu, sigma], batch)
        if chart == NATURAL:
            return _pack([mu / sigma**2, -1.0 / (2.0 * sigma**2)], batch)
        if chart == MEAN:
            return _pack([mu, mu**2 + sigma**2], batch)
        raise ChartError(f"unknown chart {chart!r}")

    def in_support(self, x) -> bool:
        return np.isfinite(x)

    def log_density(self, pt: ParameterPoint, x) -> float:
        self.validate(pt)
        if not self.in_support(x):
            raise SupportError(f"outcome {x!r} outside support")
        mu, sigma = self._raw(pt)
        return _scalar(
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
        t = np.asarray(theta, dtype=float)
        t1, t2 = _components(t)
        return _scalar(-(t1**2) / (4.0 * t2) - 0.5 * np.log(-2.0 * t2))

    def grad_potential(self, theta):
        t = np.asarray(theta, dtype=float)
        t1, t2 = _components(t)
        return _pack([-t1 / (2.0 * t2), t1**2 / (4.0 * t2**2) - 1.0 / (2.0 * t2)], t.shape[:-1])

    def hess_potential(self, theta):
        t = np.asarray(theta, dtype=float)
        t1, t2 = _components(t)
        off = t1 / (2.0 * t2**2)
        return _pack(
            [[-1.0 / (2.0 * t2), off], [off, -(t1**2) / (2.0 * t2**3) + 1.0 / (2.0 * t2**2)]],
            t.shape[:-1],
        )

    def third_potential(self, theta):
        t = np.asarray(theta, dtype=float)
        t1, t2 = _components(t)
        p112 = 1.0 / (2.0 * t2**2)
        p122 = -t1 / t2**3
        p222 = 1.5 * t1**2 / t2**4 - 1.0 / t2**3
        zero = np.zeros(t.shape[:-1])
        return _pack(
            [[[zero, p112], [p112, p122]], [[p112, p122], [p122, p222]]], t.shape[:-1]
        )

    def dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)
        e1, e2 = _components(e)
        return _scalar(-0.5 * (1.0 + np.log(e2 - e1**2)))

    def grad_dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)
        e1, e2 = _components(e)
        v = e2 - e1**2
        return _pack([e1 / v, -1.0 / (2.0 * v)], e.shape[:-1])

    def hess_dual_potential(self, eta):
        e = np.asarray(eta, dtype=float)
        e1, e2 = _components(e)
        v = e2 - e1**2
        return _pack(
            [[1.0 / v + 2.0 * e1**2 / v**2, -e1 / v**2], [-e1 / v**2, 1.0 / (2.0 * v**2)]],
            e.shape[:-1],
        )

    def _score_natural(self, theta, x):
        eta = self.grad_potential(theta)
        return np.array([x, x**2]) - eta

    def _natural_jacobian(self, pt: ParameterPoint) -> np.ndarray:
        if pt.chart == RAW:
            mu, sigma = _components(pt.coords)
            zero = np.zeros(pt.coords.shape[:-1])
            return _pack(
                [[1.0 / sigma**2, -2.0 * mu / sigma**3], [zero, 1.0 / sigma**3]],
                pt.coords.shape[:-1],
            )
        return super()._natural_jacobian(pt)

    def _natural_jacobian_derivative(self, pt: ParameterPoint, jac=None, psi3=None) -> np.ndarray:
        if pt.chart == RAW:
            # theta = (mu / sigma^2, -1 / (2 sigma^2))
            mu, sigma = pt.coords
            s3, s4 = sigma**3, sigma**4
            return np.array(
                [[[0.0, -2.0 / s3], [-2.0 / s3, 6.0 * mu / s4]], [[0.0, 0.0], [0.0, -3.0 / s4]]]
            )
        return super()._natural_jacobian_derivative(pt, jac, psi3)

    def kl(self, p: ParameterPoint, q: ParameterPoint):
        mu1, s1 = self._raw(p)
        mu2, s2 = self._raw(q)
        return _scalar(
            np.log(s2 / s1) + (s1**2 + (mu1 - mu2) ** 2) / (2.0 * s2**2) - 0.5
        )
