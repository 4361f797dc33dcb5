"""Parametrized probability families: potentials, chart maps, log-densities.

Three concrete families (1D Gaussian, Bernoulli, Categorical) expose a
natural-parameter chart and a mean-parameter chart (plus a raw (mu, sigma)
chart for the Gaussian).  Each family gives the log-partition psi and its
first three derivatives in closed form, together with the first and second
derivatives of every chart map into the natural chart; the mean-to-natural
Jacobian is the Hessian of the dual potential.  `cubic_form` contracts
psi''' twice with a vector and `hess_dual_potential_product` applies phi''
to one, each in closed form, as geodesic sprays need.  With the Fisher
information of a chart (the Hessian of the flat chart's own potential, psi''
or phi'', and diag(1, 2) / sigma^2 in the Gaussian raw chart) these are all
the geometry module needs for Fisher metrics and alpha-connections.  The
third cumulant tensor `third_potential` is the reference for `cubic_form`
and serves the log-density Hessians.  Scores and log-density Hessians of
single outcomes are transported from the natural chart by the chain rule;
expectations are exact sums for discrete families and Gauss-Hermite
quadrature for the Gaussian.  The discrete KL divergence has one formula,
sum_x p(x) (log p(x) - log q(x)), from `log_probs`: log-sigmoid and
log-softmax in the natural chart keep it finite where a probability rounds
to 0.

Batch convention: coordinates have shape (..., d), the leading axes a batch
of points (a sampled path, a difference stencil).  `validate`, `convert`,
`probs`, `log_probs`, `kl`, the Jacobian of the map into the natural chart
and the potentials with their derivatives act on a whole batch in one call,
and a single point is the no-batch case, coordinates of shape (d,), of the
same code.  A matrix-valued map returns (..., d, d); a scalar-valued one
returns a float for a single point and an array of the batch shape otherwise.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit, logsumexp, xlogy

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
    return tuple(x) if x.ndim == 1 else tuple(x[..., i] for i in range(x.shape[-1]))


def _all(mask):
    """mask.all(), without the array reduction for a single point's scalar."""
    return bool(mask) if mask.ndim == 0 else bool(mask.all())


def _pack(nested, batch):
    """Array of shape batch + s from a nested list of shape s whose entries
    are scalars (no batch) or arrays of the batch shape."""
    a = np.array(nested)
    if batch:
        r = a.ndim - len(batch)
        a = a.transpose(tuple(range(r, a.ndim)) + tuple(range(r)))
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
    def cubic_form(self, theta, u) -> np.ndarray:
        """psi_abc(theta) u^a u^b, (..., d): the third cumulant contracted
        twice with u at every point of a batch, in a closed form that does not
        build the d^3 tensor."""

    @abstractmethod
    def dual_potential(self, eta):
        """Legendre dual phi(eta) = <theta(eta), eta> - psi(theta(eta))."""

    @abstractmethod
    def grad_dual_potential(self, eta) -> np.ndarray:
        ...

    @abstractmethod
    def hess_dual_potential(self, eta) -> np.ndarray:
        ...

    def hess_dual_potential_product(self, eta, v) -> np.ndarray:
        """phi''(eta) v, (..., d), at every point of a batch.  A family whose
        phi'' is structured overrides it without building the d x d matrix."""
        return (self.hess_dual_potential(eta) @ v[..., None])[..., 0]

    # -- log-density machinery ------------------------------------------

    @abstractmethod
    def _score_natural(self, theta, x) -> np.ndarray:
        ...

    def _logp_hessian_natural(self, theta, x) -> np.ndarray:
        # d_i d_j log p = -d_i d_j psi for exponential families
        return -self.hess_potential(theta)

    def _natural_jacobian(self, pt: ParameterPoint) -> np.ndarray:
        """Jacobian d theta_a / d u_i of the map into the natural chart,
        (..., d, d); in the natural chart the identity (d, d), which
        broadcasts against any batch."""
        if pt.chart == NATURAL:
            return np.eye(self.dim)
        if pt.chart == MEAN:
            # theta(eta) = grad phi, so the Jacobian is the dual Hessian
            return self.hess_dual_potential(pt.coords)
        raise ChartError(f"no natural-chart Jacobian for chart {pt.chart!r}")

    def _natural_jacobian_derivative(self, pt: ParameterPoint) -> np.ndarray:
        """H[..., a, i, j] = d^2 theta_a / d u_i d u_j of the map into the
        natural chart, (..., d, d, d), in a chart other than the natural one.
        In the mean chart H is minus psi''' pulled back by the Jacobian phi''."""
        if pt.chart == MEAN:
            # d phi'' = -phi'' (d psi'') phi'' and d psi''_de / d eta_j = psi_def phi''_fj,
            # so H_aij = -phi''_ad psi_def phi''_ei phi''_fj, with phi'' symmetric
            psi3 = self.third_potential(self.grad_dual_potential(pt.coords))
            jac = self.hess_dual_potential(pt.coords)
            return -np.einsum("...def,...da,...ei,...fj->...aij", psi3, jac, jac, jac)
        raise ChartError(f"no natural-chart Jacobian for chart {pt.chart!r}")

    def _fisher_information(self, pt: ParameterPoint) -> np.ndarray:
        """Fisher information at the points of pt, validated by the caller,
        (..., d, d): psi'' in the natural chart, phi'' in the mean chart."""
        if pt.chart == NATURAL:
            return self.hess_potential(pt.coords)
        return self.hess_dual_potential(pt.coords)

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

    @abstractmethod
    def kl(self, p: ParameterPoint, q: ParameterPoint):
        """Kullback-Leibler divergence D(p || q) in nats, for paired points
        whose batch shapes broadcast."""


class _DiscreteFamily(DistributionFamily):
    """Common machinery for finite-outcome families."""

    @abstractmethod
    def probs(self, pt: ParameterPoint) -> np.ndarray:
        """Outcome probabilities, indexed by outcome on the last axis."""

    def log_probs(self, pt: ParameterPoint) -> np.ndarray:
        """Log outcome probabilities, indexed by outcome on the last axis.
        Families override the natural chart with a form that stays exact
        where a probability rounds to 0 or 1."""
        return np.log(self.probs(pt))

    @property
    @abstractmethod
    def outcomes(self):
        ...

    def in_support(self, x) -> bool:
        return x in self.outcomes

    def expect(self, pt: ParameterPoint, f):
        self.validate(pt)
        p = self.probs(pt)
        vals = [np.asarray(f(x), dtype=float) for x in self.outcomes]
        return sum(pi * v for pi, v in zip(p, vals))

    def kl(self, p: ParameterPoint, q: ParameterPoint):
        # sum_x p(x) (log p(x) - log q(x)), whose term is 0 where
        # log p(x) = -inf and inf where only log q(x) = -inf
        lp = self.log_probs(p)
        lq = self.log_probs(q)
        with np.errstate(invalid="ignore"):
            return _scalar(np.sum(np.where(lp == -np.inf, 0.0, np.exp(lp) * (lp - lq)), axis=-1))


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

    def log_probs(self, pt: ParameterPoint) -> np.ndarray:
        if pt.chart == NATURAL:
            # log-sigmoid stays exact where the sigmoid rounds to 0 or 1
            return np.concatenate([log_expit(-pt.coords), log_expit(pt.coords)], axis=-1)
        return super().log_probs(pt)

    def potential(self, theta):
        return _scalar(np.logaddexp(0.0, np.asarray(theta, dtype=float)[..., 0]))

    def grad_potential(self, theta):
        return expit(np.asarray(theta, dtype=float))

    def hess_potential(self, theta):
        # s (1 - s) from the two tails: a rounded s loses 1 - s near eta = 1
        t = np.asarray(theta, dtype=float)
        return (expit(t) * expit(-t))[..., None]

    def third_potential(self, theta):
        # s (1 - s) (1 - 2 s), with 1 - 2 s = (1 - s) - s
        t = np.asarray(theta, dtype=float)
        s, r = expit(t), expit(-t)
        return (s * r * (r - s))[..., None, None]

    def cubic_form(self, theta, u):
        t = np.asarray(theta, dtype=float)
        s, r = expit(t), expit(-t)
        return s * r * (r - s) * u**2

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
            # a sum that overflows, or is nan, fails the test below
            with np.errstate(over="ignore", invalid="ignore"):
                full = _with_last(pt.coords)
            if not _all((full > 0.0) & (full < 1.0)):
                if not _all((full != 0.0) & (full != 1.0)):
                    raise BoundaryParameterError("probability on the boundary")
                raise InvalidParameterError("probabilities must lie in (0, 1)")
        else:
            # softmax and logsumexp subtract the largest log-odds from each:
            # max - min <= the largest double, tested without the difference
            hi = pt.coords.max(axis=-1, initial=0.0)
            if not _all(hi - np.finfo(float).max <= pt.coords.min(axis=-1, initial=0.0)):
                raise InvalidParameterError(
                    "log-odds spread, the last outcome's 0 included, must be finite"
                )

    def probs(self, pt: ParameterPoint) -> np.ndarray:
        if pt.chart == MEAN:
            return _with_last(pt.coords)
        return _softmax(pt.coords)

    def log_probs(self, pt: ParameterPoint) -> np.ndarray:
        if pt.chart == NATURAL:
            # log-softmax; a log-odds spread beyond the largest double gives -inf
            z = _append_zero(pt.coords)
            with np.errstate(over="ignore"):
                z = z - z.max(axis=-1, keepdims=True)
            return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
        return super().log_probs(pt)

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

    def cubic_form(self, theta, u):
        # the third central moment E[(Y - m)^2 (T_c - p_c)] of Y = u . T, with
        # m = E[Y] = p . u: outcome a < k has Y - m = u_a - m = x_a, and the
        # last outcome k has Y - m = -m
        full = _softmax(theta)
        p, p_last = full[..., :-1], full[..., -1:]
        m = np.sum(p * u, axis=-1, keepdims=True)
        x = u - m
        return p * x**2 - p * (np.sum(p * x**2, axis=-1, keepdims=True) + p_last * m**2)

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

    def hess_dual_potential_product(self, eta, v):
        # diag(1 / eta) + 1 1^T / eta_k applied to v
        e = np.asarray(eta, dtype=float)
        last = 1.0 - e.sum(axis=-1, keepdims=True)
        return v / e + np.sum(v, axis=-1, keepdims=True) / last

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


# Largest sigma, 1 / sigma and |mu| / sigma of a valid point, in every chart:
# the natural coordinates of (mu, sigma), the chart derivatives, psi'' and
# psi''' there and their pullbacks carry powers of these up to the eighth (the
# factor 2 is headroom for the constants and rounding of those terms).
_SCALE_MAX = 0.5 * np.finfo(float).max ** 0.125
_SIGMA_MIN = 1.0 / _SCALE_MAX


class Gaussian1D(DistributionFamily):
    """Normal distribution on the line with raw, natural, and mean charts.

    raw:     (mu, sigma), sigma > 0
    natural: (mu / sigma^2, -1 / (2 sigma^2))
    mean:    (E[x], E[x^2]) = (mu, mu^2 + sigma^2)

    A valid point also has sigma, 1 / sigma and |mu| / sigma at most
    _SCALE_MAX (about 1.7e38), where their eighth powers near overflow.
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
        # sigma and |mu| / sigma of every point: a value that overflows to inf
        # or is nan outside the chart's domain fails the test below
        with np.errstate(all="ignore"):
            if pt.chart == RAW:
                sigma = second
                z = np.abs(first) / sigma
            elif pt.chart == NATURAL:
                sigma = np.sqrt(-0.5 / second)
                z = np.abs(first) * sigma
            else:
                sigma = np.sqrt(second - first**2)
                z = np.abs(first) / sigma
            if _all((sigma >= _SIGMA_MIN) & (sigma <= _SCALE_MAX) & (z <= _SCALE_MAX)):
                return
        if pt.chart == RAW:
            if not _all(second != 0.0):
                raise BoundaryParameterError("sigma = 0")
            if not _all(second > 0.0):
                raise InvalidParameterError("sigma must be positive")
        elif pt.chart == NATURAL:
            if not _all(second < 0.0):
                raise InvalidParameterError("second natural parameter must be negative")
        elif not _all(sigma > 0.0):
            raise InvalidParameterError("variance eta2 - eta1^2 must be positive")
        if not _all(sigma >= _SIGMA_MIN):
            raise InvalidParameterError(
                f"sigma must be at least {_SIGMA_MIN:.3g}, where 1 / sigma^8 nears overflow"
            )
        if not _all(sigma <= _SCALE_MAX):
            raise InvalidParameterError(
                f"sigma must be at most {_SCALE_MAX:.3g}, where sigma^8 nears overflow"
            )
        raise InvalidParameterError(
            f"|mu| / sigma must be at most {_SCALE_MAX:.3g}, where its eighth power nears overflow"
        )

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

    def cubic_form(self, theta, u):
        # with r = 1 / theta_2 the entries are psi_112 = r^2 / 2, psi_122 =
        # -theta_1 r^3 and psi_222 = 3/2 theta_1^2 r^4 - r^3; in w = theta_1 r u_2
        # the two components factor
        t = np.asarray(theta, dtype=float)
        r = 1.0 / t[..., 1]
        u1, u2 = u[..., 0], u[..., 1]
        w = t[..., 0] * r * u2
        r2 = r * r
        r2a = r2 * (u1 - w)
        return np.stack([r2a * u2, 0.5 * r2a * (u1 - 3.0 * w) - r2 * r * u2 * u2], axis=-1)

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

    def _natural_jacobian_derivative(self, pt: ParameterPoint) -> np.ndarray:
        if pt.chart == RAW:
            # theta = (mu / sigma^2, -1 / (2 sigma^2))
            mu, sigma = _components(pt.coords)
            s3, s4 = sigma**3, sigma**4
            zero = np.zeros(pt.coords.shape[:-1])
            return _pack(
                [[[zero, -2.0 / s3], [-2.0 / s3, 6.0 * mu / s4]], [[zero, zero], [zero, -3.0 / s4]]],
                pt.coords.shape[:-1],
            )
        return super()._natural_jacobian_derivative(pt)

    def _fisher_information(self, pt: ParameterPoint) -> np.ndarray:
        if pt.chart == RAW:
            # diag(1, 2) / sigma^2: J^T psi'' J reaches it only by cancelling
            # terms that grow with (mu / sigma)^2
            inv_var = 1.0 / pt.coords[..., 1] ** 2
            zero = np.zeros(pt.coords.shape[:-1])
            return _pack([[inv_var, zero], [zero, 2.0 * inv_var]], pt.coords.shape[:-1])
        return super()._fisher_information(pt)

    def kl(self, p: ParameterPoint, q: ParameterPoint):
        mu1, s1 = self._raw(p)
        mu2, s2 = self._raw(q)
        return _scalar(
            np.log(s2 / s1) + (s1**2 + (mu1 - mu2) ** 2) / (2.0 * s2**2) - 0.5
        )
