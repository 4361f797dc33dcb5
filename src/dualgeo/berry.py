"""Geometric (Berry) connection, curvature, and holonomy for state families.

The loop phase uses the gauge-invariant overlap-product formula; curvature
uses the plaquette (four-overlap) formula; the surface flux sums plaquette
phases over a parameter mesh, reproducing the Stokes relation against the
boundary loop.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_H_CONN = 1e-5
_H_CURV = 1e-4


class DegenerateStateError(ValueError):
    """Neighboring states nearly orthogonal: likely near a level crossing."""


@dataclass(frozen=True)
class StateFamily:
    """Smooth map from m parameters to a normalized pure state.

    The evaluator is component-first: it takes an array of shape
    (m, *batch), whose leading axis holds the parameter components, and
    returns the state vectors as an array of shape (d, *batch).  The batch
    shape may be empty (one point).
    """

    dim_param: int
    evaluator: object  # callable: (m, *batch) array -> (d, *batch) complex array

    def states(self, points) -> np.ndarray:
        """States at points of shape (..., m), as an array of shape (..., d)."""
        p = np.asarray(points, dtype=float)
        if p.ndim == 0 or p.shape[-1] != self.dim_param:
            raise ValueError(f"points must have a last axis of length {self.dim_param}")
        v = np.asarray(self.evaluator(np.moveaxis(p, -1, 0)), dtype=complex)
        if v.shape[1:] != p.shape[:-1]:
            raise ValueError("state family evaluator must map (m, *batch) to (d, *batch)")
        v = np.moveaxis(v, 0, -1)
        if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-12):
            raise ValueError("state family evaluator must return normalized states")
        return v

    def state(self, params) -> np.ndarray:
        """The state at one point of shape (m,): the single-point case of states."""
        return self.states(params)


def spin_half() -> StateFamily:
    """|n(theta, phi)> = (cos(theta/2), e^{i phi} sin(theta/2))."""

    def ev(p):
        th, ph = p
        return np.array([np.cos(th / 2.0), np.exp(1j * ph) * np.sin(th / 2.0)])

    return StateFamily(2, ev)


def with_gauge(family: StateFamily, alpha_fn) -> StateFamily:
    """Multiply the family by a smooth phase e^{i alpha(R)} (gauge change).

    alpha_fn follows the evaluator contract: (m, *batch) -> (*batch).
    """
    return StateFamily(
        family.dim_param, lambda p: np.exp(1j * alpha_fn(p)) * family.evaluator(p)
    )


@dataclass(frozen=True)
class LoopPath:
    """Closed ordered parameter points R_0 ... R_K with R_K = R_0, K >= 8."""

    points: np.ndarray  # (K+1, m)

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", p)
        if p.shape[0] < 9:
            raise ValueError("loop needs at least 8 segments")
        if np.max(np.abs(p[0] - p[-1])) > 1e-12:
            raise ValueError("loop must close")

    def reversed(self) -> "LoopPath":
        return LoopPath(self.points[::-1].copy())


def latitude_loop(theta_c: float, segments: int = 2000) -> LoopPath:
    """Constant-polar-angle loop on the sphere, traversed in +phi."""
    phis = np.linspace(0.0, 2.0 * np.pi, segments + 1)
    pts = np.stack([np.full_like(phis, theta_c), phis], axis=1)
    pts[-1] = pts[0]
    return LoopPath(pts)


def constant_loop(params, segments: int = 16) -> LoopPath:
    p = np.asarray(params, dtype=float)
    return LoopPath(np.tile(p, (segments + 1, 1)))


@dataclass(frozen=True)
class SurfaceMesh:
    """Structured (Nu+1) x (Nv+1) parameter grid; v-edges identified, the
    last u-row is the boundary loop."""

    grid: np.ndarray  # (Nu+1, Nv+1, m)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", g)
        if g.ndim != 3:
            raise ValueError("mesh grid must be (Nu+1, Nv+1, m)")
        if np.max(np.abs(g[:, 0, :] - g[:, -1, :])) > 1e-10:
            raise ValueError("mesh v-edges must be identified (closed in v)")

    def boundary_loop(self) -> LoopPath:
        return LoopPath(self.grid[-1].copy())


def polar_cap(theta_c: float, nu: int = 128, nv: int = 256, theta_start: float = 0.0) -> SurfaceMesh:
    """Spherical cap theta in [theta_start, theta_c], phi in [0, 2 pi]."""
    thetas = np.linspace(theta_start, theta_c, nu + 1)
    phis = np.linspace(0.0, 2.0 * np.pi, nv + 1)
    grid = np.empty((nu + 1, nv + 1, 2))
    grid[:, :, 0] = thetas[:, None]
    grid[:, :, 1] = phis[None, :]
    grid[:, -1, :] = grid[:, 0, :]  # identify phi = 2 pi with phi = 0
    return SurfaceMesh(grid)


def berry_connection(family: StateFamily, params, step: float = _H_CONN) -> np.ndarray:
    """A_mu = i <n | d_mu n> by central differences; real up to a tiny residue."""
    params = np.asarray(params, dtype=float)
    n0 = family.state(params)
    out = np.empty(family.dim_param)
    for mu in range(family.dim_param):
        dp = np.zeros_like(params)
        dp[mu] = step
        n_plus = family.state(params + dp)
        n_minus = family.state(params - dp)
        if abs(np.vdot(n0, n_plus)) < 0.5 or abs(np.vdot(n0, n_minus)) < 0.5:
            raise DegenerateStateError("state varies too fast across the stencil")
        val = 1j * np.vdot(n0, (n_plus - n_minus) / (2.0 * step))
        out[mu] = val.real
    return out


def berry_curvature(family: StateFamily, params, step: float = _H_CURV) -> np.ndarray:
    """F_{mu nu} from the gauge-invariant plaquette (four-overlap) phase."""
    params = np.asarray(params, dtype=float)
    m = family.dim_param
    f = np.zeros((m, m))
    for mu in range(m):
        for nu in range(mu + 1, m):
            du = np.zeros(m)
            dv = np.zeros(m)
            du[mu] = step
            dv[nu] = step
            half = 0.5 * (du + dv)
            corners = [
                params - half,
                params + du - half,
                params + du + dv - half,
                params + dv - half,
            ]
            states = [family.state(c) for c in corners]
            prod = 1.0 + 0.0j
            for k in range(4):
                ov = np.vdot(states[k], states[(k + 1) % 4])
                if abs(ov) < 1e-12:
                    raise DegenerateStateError("vanishing overlap on plaquette")
                prod *= ov
            f[mu, nu] = -np.angle(prod) / step**2
            f[nu, mu] = -f[mu, nu]
    return f


def berry_phase_loop(family: StateFamily, loop: LoopPath, unwrapped: bool = False) -> float:
    """Holonomy gamma = -arg prod_k <n(R_k)|n(R_{k+1})>.

    With unwrapped=True the per-segment phases are accumulated without
    wrapping, so multi-winding loops report their total phase; otherwise
    the principal value in (-pi, pi] is returned.
    """
    states = family.states(loop.points)
    ov = np.sum(states[:-1].conj() * states[1:], axis=-1)
    if np.any(np.abs(ov) < 1e-12):
        raise DegenerateStateError("vanishing overlap along loop")
    total = -float(np.sum(np.angle(ov)))
    return total if unwrapped else principal_phase(total)


def winding_count(family: StateFamily, loop: LoopPath) -> int:
    """Integer windings beyond the principal value of the loop phase."""
    total = berry_phase_loop(family, loop, unwrapped=True)
    return int(np.round((total - principal_phase(total)) / (2.0 * np.pi)))


def berry_phase_surface(family: StateFamily, mesh: SurfaceMesh, unwrapped: bool = True) -> float:
    """Curvature flux through the mesh as a sum of plaquette phases."""
    states = family.states(mesh.grid)

    def ov(a, b):
        return np.sum(a.conj() * b, axis=-1)

    # plaquette corners: (i,j) -> (i+1,j) -> (i+1,j+1) -> (i,j+1) -> (i,j)
    prod = (
        ov(states[:-1, :-1], states[1:, :-1])
        * ov(states[1:, :-1], states[1:, 1:])
        * ov(states[1:, 1:], states[:-1, 1:])
        * ov(states[:-1, 1:], states[:-1, :-1])
    )
    if np.any(np.abs(prod) < 1e-24):
        raise DegenerateStateError("vanishing overlap on mesh cell")
    total = -float(np.sum(np.angle(prod)))
    return total if unwrapped else principal_phase(total)


def principal_phase(gamma: float) -> float:
    """Wrap a phase into (-pi, pi]."""
    out = np.mod(gamma + np.pi, 2.0 * np.pi) - np.pi
    if out == -np.pi:
        out = np.pi
    return float(out)
