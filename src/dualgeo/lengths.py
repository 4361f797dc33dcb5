"""Arc-length functionals and geodesics on dually flat statistical manifolds.

All lengths are composite-trapezoid quadratures of sqrt(v^T G v) along a
sampled path, with velocities from second-order finite differences on the
parameter grid and the metric G as an (n, d, d) array over the n samples,
all by the one quadrature `path_length`.  `length_report` evaluates every
metric it needs on the whole path at once (see its docstring).

Geodesics are straight segments in the flat chart for alpha = +/-1.  The
Levi-Civita geodesic (alpha = 0) is shot: a damped Newton iteration on the
initial velocity drives the miss at t = 1 to zero.  Each iteration integrates
the trial velocity and its d forward-difference perturbations together, as
one (d + 1, 2d) RK4 state of positions and velocities, so every stage makes
one batched `geodesic_spray` call on d + 1 points: the Levi-Civita connection
contracted with each velocity, Gamma(v, v), in closed form and without the d^3
Christoffel tensor.  The perturbed endpoints give the Jacobian of the miss.

The first trial is the mean of the e- and m-geodesic initial velocities
(`_first_trial`), right to third order in the chord x1 - x0 because the
Levi-Civita connection is the mean of the two; where it is not finite or
strays more than half the chord from the chord, the chord is the first trial.
Newton stops when the miss is below tol / 100, or, after a full Newton step,
when the miss it predicts for the pending step, miss * Theta^2 with the
contraction Theta = |step| / |previous step| (Deuflhard 2004, section 3.2),
is.  The pending step is then applied along the whole path by the
sensitivity, without another integration.  A trial that leaves the chart's
domain or meets a singular or overflowing metric halves the Newton step.  A
step that still fails after _HALVINGS halvings, or a miss above `tol` after
_NEWTON_ITERATIONS iterations, ends the iteration; from the dual-connection
trial Newton then starts again from the chord, and from the chord it is a
NonConvergenceError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    MEAN,
    NATURAL,
    DistributionFamily,
    InvalidParameterError,
    ParameterPoint,
)
from .errors import NonConvergenceError
from .geometry import (
    divergence_hessians,
    fisher_metric,
    geodesic_spray,
)


# Shooting limits: Newton iterations (two to four converge on the geodesics
# the tests and the benchmark shoot), and halvings of one Newton step, which
# may shrink it to 1/64 before the shot fails.
_NEWTON_ITERATIONS = 20
_HALVINGS = 6


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


def path_length(path: ParamPath, metric) -> float:
    """Trapezoid quadrature of sqrt(v^T G v) with G the (count, d, d) metric."""
    vel = np.gradient(path.samples, path.ts, axis=0)
    q = np.einsum("ni,nij,nj->n", vel, metric, vel)
    return float(np.trapezoid(np.sqrt(np.maximum(q, 0.0)), path.ts))


def primal_length(path: ParamPath, family: DistributionFamily) -> float:
    """Fisher arc length of the path in its own chart."""
    return path_length(path, fisher_metric(family, path.batch()).components)


def harmonic_length(path: ParamPath, g, g_star) -> float:
    """Length under H = 2 (g^-1 + g*^-1)^-1, the harmonic mean of the metrics."""
    return path_length(path, 2.0 * np.linalg.inv(np.linalg.inv(g) + np.linalg.inv(g_star)))


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
        primal=path_length(path, g),
        dual=path_length(image, family.hess_dual_potential(image.samples)),
        harmonic=harmonic_length(path, g, g_star_kl),
        divergence_based=path_length(path, g_kl + g_star_kl),
        grid_size=path.count,
    )


def _first_trial(family: DistributionFamily, chart: str, x0, x1) -> np.ndarray:
    """First trial initial velocity of the Levi-Civita geodesic from x0 to x1
    in `chart`.

    The Levi-Civita connection is the mean of the e- and m-connections, so
    the mean of the e- and m-geodesic initial velocities,

        v0 = 1/2 J^-1 [(theta1 - theta0) + phi''(eta0) (eta1 - eta0)],

    with J = d theta / dx at x0 (the identity in the natural chart), matches
    the Levi-Civita initial velocity up to third order in the chord
    x1 - x0, where the chord itself is off at second order.  v0 is taken
    where it is finite and within half the chord of the chord (max norm);
    otherwise the chord is.
    """
    chord = x1 - x0
    ends = ParameterPoint(chart, np.stack([x0, x1]))
    theta = family.convert(ends, NATURAL).coords
    eta = family.convert(ends, MEAN).coords
    # a saturated point (eta on the boundary in double precision) gives an
    # infinite phi'' and so a v0 that is not finite
    with np.errstate(all="ignore"):
        u = theta[1] - theta[0] + family.hess_dual_potential_product(eta[0], eta[1] - eta[0])
        try:
            v0 = 0.5 * np.linalg.solve(family._natural_jacobian(ParameterPoint(chart, x0)), u)
        except np.linalg.LinAlgError:
            return chord
        trusted = np.all(np.isfinite(v0)) and np.max(np.abs(v0 - chord)) <= 0.5 * np.max(np.abs(chord))
    return v0 if trusted else chord


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
    h = 1.0 / steps

    def rhs(state):
        # rows (x, v) of each shot; one spray call validates all d + 1
        # positions and gives each its acceleration -Gamma(v, v)
        x, v = state[:, :d], state[:, d:]
        return np.concatenate([v, -geodesic_spray(family, ParameterPoint(chart, x), v, 0.0)], axis=1)

    def shoot(v0):
        """Trajectory (steps + 1, d) from x0 with velocity v0, and its
        sensitivity [t, i, j] = d x_j(t) / d v0_i from the shots at
        v0 + eps_i e_i."""
        eps = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(v0))
        velocities = v0 + np.vstack([np.zeros(d), np.diag(eps)])
        state = np.hstack([np.tile(x0, (d + 1, 1)), velocities])
        paths = np.empty((steps + 1, d + 1, d))
        paths[0] = x0
        for n in range(steps):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * h * k1)
            k3 = rhs(state + 0.5 * h * k2)
            k4 = rhs(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            paths[n + 1] = state[:, :d]
        return paths[:, 0], (paths[:, 1:] - paths[:, :1]) / eps[:, None]

    chord = x1 - x0
    integrations = 0

    def newton(step):
        """Damped Newton from v = 0, whose path stays at x0, with `step` as
        the first trial (halved like any other step that fails): the last
        shot, its sensitivity and the pending Newton step."""
        nonlocal integrations
        v, miss = np.zeros(d), float(np.max(np.abs(chord)))
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                for iteration in range(_NEWTON_ITERATIONS):
                    for halvings_left in range(_HALVINGS, -1, -1):
                        integrations += 1
                        try:
                            traj, sens = shoot(v + step)
                            break
                        except (InvalidParameterError, np.linalg.LinAlgError, FloatingPointError):
                            if not halvings_left:
                                raise
                            step = 0.5 * step
                    # whether the step just taken was a full Newton step
                    newton_step = iteration > 0 and halvings_left == _HALVINGS
                    v = v + step
                    residual = traj[-1] - x1
                    miss = float(np.max(np.abs(residual)))
                    taken = float(np.max(np.abs(step)))
                    step = -np.linalg.solve(sens[-1].T, residual)
                    # Newton's contraction Theta = |step| / |taken| predicts
                    # the miss after the pending step, miss * Theta^2
                    # (Deuflhard 2004, section 3.2); multiplied out, so that
                    # no step of size 0 divides
                    pending = float(np.max(np.abs(step)))
                    if miss <= tol * 1e-2 or (
                        newton_step and miss * pending * pending <= tol * 1e-2 * taken * taken
                    ):
                        return traj, sens, step
        except (InvalidParameterError, np.linalg.LinAlgError, FloatingPointError) as exc:
            raise NonConvergenceError(
                f"geodesic shooting failed in integration {integrations}, "
                f"last miss {miss:.3g}: {exc}"
            ) from exc
        if miss > tol:
            raise NonConvergenceError(
                f"geodesic shooting did not converge: miss {miss:.3g} "
                f"after {integrations} integrations"
            )
        return traj, sens, step

    trial = _first_trial(family, chart, x0, x1)
    try:
        traj, sens, step = newton(trial)
    except NonConvergenceError:
        # a dual-connection trial outside Newton's region of convergence:
        # Newton again from the chord
        if np.array_equal(trial, chord):
            raise
        traj, sens, step = newton(chord)
    # The pending Newton step, carried along the whole path by its
    # sensitivity: the endpoint lands on x1 to rounding, and the path matches
    # the shot at v + step to O(step^2), without another integration.
    traj = traj + step @ sens
    ts = np.linspace(0.0, 1.0, steps + 1)
    if count != steps + 1:
        tq = np.linspace(0.0, 1.0, count)
        traj = np.stack([np.interp(tq, ts, traj[:, j]) for j in range(traj.shape[1])], axis=1)
        ts = tq
    return ParamPath(chart, traj, ts)
