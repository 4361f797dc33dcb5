"""Arc-length functionals and geodesics on dually flat statistical manifolds.

All lengths are composite-trapezoid quadratures of sqrt(v^T G v) along a
sampled path, with velocities from second-order finite differences on the
parameter grid and the metric G as an (n, d, d) array over the n samples.
`length_report` evaluates every metric it needs on the whole path at once
(see its docstring); `path_length` stacks a per-point metric callable into
the same quadrature.  Geodesics are straight segments in the flat chart for
alpha = +/-1 and a shooting RK4 integration of the Levi-Civita geodesic
equation for alpha = 0, with closed-form Christoffel symbols at every
stage.  A shot that leaves the chart's domain or meets a singular or
overflowing metric is a NonConvergenceError, like a shot that misses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import root

from .distributions import (
    MEAN,
    NATURAL,
    DistributionFamily,
    InvalidParameterError,
    ParameterPoint,
)
from .errors import NonConvergenceError
from .geometry import (
    PotentialPair,
    christoffel,
    divergence_hessians,
    fisher_metric,
)


@dataclass(frozen=True)
class ParamPath:
    """Uniformly sampled curve t in [0, 1] -> parameter coordinates."""

    chart: str
    samples: np.ndarray  # (count, dim)
    ts: np.ndarray = None

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.samples, dtype=float))
        object.__setattr__(self, "samples", s)
        ts = self.ts
        if ts is None:
            ts = np.linspace(0.0, 1.0, s.shape[0])
        ts = np.asarray(ts, dtype=float)
        if s.shape[0] < 2:
            raise ValueError("path needs at least 2 samples")
        if np.any(np.diff(ts) <= 0.0):
            raise ValueError("path parameter must be strictly increasing")
        object.__setattr__(self, "ts", ts)

    @property
    def count(self):
        return self.samples.shape[0]

    @classmethod
    def straight(cls, chart, a, b, count=129):
        """Straight-line segment between two coordinate vectors."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        ts = np.linspace(0.0, 1.0, count)
        return cls(chart, a[None, :] + ts[:, None] * (b - a)[None, :], ts)

    def batch(self):
        """All samples as one ParameterPoint of shape (count, dim)."""
        return ParameterPoint(self.chart, self.samples)

    def refined(self, factor=2):
        """Same curve re-sampled on a grid `factor` times as fine (linear)."""
        n = (self.count - 1) * factor + 1
        ts = np.linspace(self.ts[0], self.ts[-1], n)
        cols = [np.interp(ts, self.ts, self.samples[:, j]) for j in range(self.samples.shape[1])]
        return ParamPath(self.chart, np.stack(cols, axis=1), ts)


@dataclass(frozen=True)
class LengthReport:
    primal: float
    dual: float
    harmonic: float
    divergence_based: float
    grid_size: int


def _arc_length(path: ParamPath, metric) -> float:
    """Trapezoid quadrature of sqrt(v^T G v) with G the (count, d, d) metric."""
    vel = np.gradient(path.samples, path.ts, axis=0)
    q = np.einsum("ni,nij,nj->n", vel, metric, vel)
    return float(np.trapezoid(np.sqrt(np.maximum(q, 0.0)), path.ts))


def _stacked(path: ParamPath, field_fn):
    return np.stack([np.atleast_2d(field_fn(c)) for c in path.samples])


def _harmonic_mean(g, g_star):
    """H = 2 (g^-1 + g*^-1)^-1 at every sample."""
    return 2.0 * np.linalg.inv(np.linalg.inv(g) + np.linalg.inv(g_star))


def path_length(path: ParamPath, field_fn) -> float:
    """Trapezoid quadrature of sqrt(v^T G(x) v) with G from `field_fn`."""
    return _arc_length(path, _stacked(path, field_fn))


def primal_length(path: ParamPath, family: DistributionFamily) -> float:
    """Fisher arc length of the path in its own chart."""
    return _arc_length(path, fisher_metric(family, path.batch()).components)


def dual_length(path: ParamPath, pot: PotentialPair) -> float:
    """Arc length of the grad-psi image of a primal-chart path under g*."""
    if path.chart != pot.primal_chart:
        raise ValueError(f"dual_length expects a {pot.primal_chart!r}-chart path")
    image = np.stack([np.atleast_1d(pot.grad_psi(c)) for c in path.samples])
    dual_path = ParamPath(pot.dual_chart, image, path.ts)
    return path_length(dual_path, lambda c: pot.hess_phi(c))


def potential_length(path: ParamPath, pot: PotentialPair) -> float:
    """Arc length under the primal Hessian metric g = psi''."""
    if path.chart != pot.primal_chart:
        raise ValueError(f"potential_length expects a {pot.primal_chart!r}-chart path")
    return path_length(path, lambda c: pot.hess_psi(c))


def harmonic_length(path: ParamPath, g_field, g_star_field) -> float:
    """Length under H = 2 (g^-1 + g*^-1)^-1, the harmonic mean of the metrics."""
    return _arc_length(path, _harmonic_mean(_stacked(path, g_field), _stacked(path, g_star_field)))


def divergence_length(path: ParamPath, family: DistributionFamily) -> float:
    """Length under g + g* with both metrics from KL-divergence Hessians."""
    g, g_star = divergence_hessians(family, path.batch())
    return _arc_length(path, g + g_star)


def length_report(path: ParamPath, family: DistributionFamily) -> LengthReport:
    """All length functionals of a path, with g* taken in the same chart.

    One pass over whole-path arrays: the closed-form Fisher metric g of the
    path's chart (validating the path), the natural coordinates theta of the
    path with its grad-psi image eta and the dual metric phi''(eta) there,
    and the KL-divergence Hessians (g_kl, g*_kl) from one stencil evaluation
    per argument slot.  Then

        primal             under g
        dual               of the eta image under phi''
        harmonic           under 2 (g^-1 + g*_kl^-1)^-1
        divergence_based   under g_kl + g*_kl
    """
    pts = path.batch()
    g = fisher_metric(family, pts).components
    theta = family.convert(pts, NATURAL).coords
    image = ParamPath(MEAN, family.grad_potential(theta), path.ts)
    g_kl, g_star_kl = divergence_hessians(family, pts)
    return LengthReport(
        primal=_arc_length(path, g),
        dual=_arc_length(image, family.hess_dual_potential(image.samples)),
        harmonic=_arc_length(path, _harmonic_mean(g, g_star_kl)),
        divergence_based=_arc_length(path, g_kl + g_star_kl),
        grid_size=path.count,
    )


def geodesic(
    family: DistributionFamily,
    chart: str,
    a: ParameterPoint,
    b: ParameterPoint,
    alpha: int,
    count: int = 129,
    steps: int = 128,
    tol: float = 1e-6,
) -> ParamPath:
    """Geodesic from a to b, returned as a sampled path in `chart`.

    alpha = +1: straight segment in the natural chart.
    alpha = -1: straight segment in the mean chart.
    alpha =  0: Levi-Civita geodesic by RK4 shooting on the initial velocity.
    """
    family.validate(a)
    family.validate(b)
    if alpha == 1 or alpha == -1:
        flat = NATURAL if alpha == 1 else MEAN
        fa = family.convert(a, flat).coords
        fb = family.convert(b, flat).coords
        flat_path = ParamPath.straight(flat, fa, fb, count)
        return ParamPath(chart, family.convert(flat_path.batch(), chart).coords, flat_path.ts)
    if alpha != 0:
        raise ValueError("alpha must be one of {-1, 0, 1}")

    x0 = family.convert(a, chart).coords
    x1 = family.convert(b, chart).coords
    if np.allclose(x0, x1):
        return ParamPath(chart, np.tile(x0, (count, 1)))

    d = x0.size

    def rhs(state):
        x, v = state[:d], state[d:]
        gamma = christoffel(family, ParameterPoint(chart, x), 0.0).components
        return np.concatenate([v, -(gamma @ v) @ v])

    def integrate(v0):
        state = np.concatenate([x0, v0])
        h = 1.0 / steps
        traj = [x0.copy()]
        for _ in range(steps):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * h * k1)
            k3 = rhs(state + 0.5 * h * k2)
            k4 = rhs(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            traj.append(state[:d].copy())
        return np.stack(traj)

    # The last trial's velocity, trajectory and miss: root usually returns the
    # velocity it tried last, whose trajectory then needs no re-integration.
    last = {"v0": None, "traj": None, "miss": float("nan"), "nfev": 0}

    def miss(v0):
        last["nfev"] += 1
        traj = integrate(v0)
        last["v0"], last["traj"] = v0.copy(), traj
        last["miss"] = float(np.max(np.abs(traj[-1] - x1)))
        return traj[-1] - x1

    try:
        # a trial velocity may carry the path out of the chart's domain or
        # into a singular or overflowing metric: that is a failed shot
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            sol = root(miss, x1 - x0, method="hybr", tol=tol * 1e-2)
    except (InvalidParameterError, np.linalg.LinAlgError, FloatingPointError) as exc:
        raise NonConvergenceError(
            f"geodesic shooting failed in integration {last['nfev']}, "
            f"last miss {last['miss']:.3g}: {exc}"
        ) from exc
    residual = float(np.max(np.abs(sol.fun)))
    if not sol.success or residual > tol:
        raise NonConvergenceError(
            f"geodesic shooting did not converge: miss {residual:.3g} "
            f"after {sol.nfev} integrations"
        )
    traj = last["traj"] if np.array_equal(last["v0"], sol.x) else integrate(sol.x)
    ts = np.linspace(0.0, 1.0, steps + 1)
    if count != steps + 1:
        tq = np.linspace(0.0, 1.0, count)
        traj = np.stack([np.interp(tq, ts, traj[:, j]) for j in range(traj.shape[1])], axis=1)
        ts = tq
    return ParamPath(chart, traj, ts)
