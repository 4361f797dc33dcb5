"""Dual-affine core: Fisher metrics, Legendre duality, Bregman/KL divergences,
alpha-connection Christoffel symbols, and rotation transforms.

Every family here is exponential, so the Fisher metric and the
alpha-connections have closed forms in the log-partition psi (Amari &
Nagaoka, Methods of Information Geometry, 2000, sections 2.3 and 3.5).  With
theta(u) the natural coordinates of a chart point u, J = d theta / du and
H = d^2 theta / du^2,

    g_ij = psi_ab J^a_i J^b_j
    Gamma^(alpha)_{ij,k} = (1 - alpha)/2 psi_abc J^a_i J^b_j J^c_k
                           + psi_ab H^a_ij J^b_k.

No expectation is taken.  The alpha-connection family interpolates between
the exponential (alpha = 1), Levi-Civita (alpha = 0), and mixture
(alpha = -1) connections.  Hessians of the KL divergence give the
independent metric route that the length functionals cross-check.

`fisher_metric` and `divergence_hessians` follow the batch convention of
`distributions`: a ParameterPoint with coordinates (..., d) gives metrics
(..., d, d), and a single point is the no-batch case.  The connections are
evaluated one point at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    MEAN,
    NATURAL,
    ChartError,
    DistributionFamily,
    ParameterPoint,
)

PRIMAL = "primal"
DUAL = "dual"


class DegenerateMetricError(ValueError):
    """Metric or Hessian not positive definite where it must be."""


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric bilinear form at a point of a named chart: components
    (d, d), or (..., d, d) at a batch of points, each one checked."""

    chart: str
    at: ParameterPoint
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", c)
        if not np.isfinite(c).all():
            raise DegenerateMetricError("metric components must be finite")
        ct = c.swapaxes(-1, -2)
        if not (np.abs(c - ct) <= 1e-12 + 1e-5 * np.abs(ct)).all():
            raise DegenerateMetricError("metric components must be symmetric")


@dataclass(frozen=True)
class ChristoffelArray:
    """Connection coefficients Gamma^i_{jk}; components[i, j, k], symmetric in (j, k)."""

    chart: str
    at: ParameterPoint
    alpha: float
    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", c)


@dataclass(frozen=True)
class RotationMap:
    """Planar rotation embedded in n dimensions; orthogonal with det +1."""

    dimension: int
    angle: float
    plane: tuple = (0, 1)
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        i, j = self.plane
        if not (0 <= i < self.dimension and 0 <= j < self.dimension and i != j):
            raise ValueError("rotation plane indices out of range")
        m = np.eye(self.dimension)
        c, s = np.cos(self.angle), np.sin(self.angle)
        m[i, i] = c
        m[j, j] = c
        m[i, j] = -s
        m[j, i] = s
        object.__setattr__(self, "matrix", m)


class PotentialPair:
    """A convex potential, its Legendre dual, and their gradient/Hessian maps."""

    def __init__(
        self,
        psi,
        grad_psi,
        hess_psi,
        phi,
        grad_phi,
        hess_phi,
        primal_chart=PRIMAL,
        dual_chart=DUAL,
    ):
        self.psi = psi
        self.grad_psi = grad_psi
        self.hess_psi = hess_psi
        self.phi = phi
        self.grad_phi = grad_phi
        self.hess_phi = hess_phi
        self.primal_chart = primal_chart
        self.dual_chart = dual_chart

    @classmethod
    def from_family(cls, family: DistributionFamily) -> "PotentialPair":
        """Log-partition / negative-entropy pair of an exponential family."""
        return cls(
            family.potential,
            family.grad_potential,
            family.hess_potential,
            family.dual_potential,
            family.grad_dual_potential,
            family.hess_dual_potential,
            primal_chart=NATURAL,
            dual_chart=MEAN,
        )

    @classmethod
    def quadratic(cls, dim: int = 1) -> "PotentialPair":
        """Self-dual psi(theta) = |theta|^2 / 2."""
        eye = np.eye(dim)
        return cls(
            lambda t: 0.5 * float(np.dot(t, t)),
            lambda t: np.asarray(t, dtype=float).copy(),
            lambda t: eye.copy(),
            lambda e: 0.5 * float(np.dot(e, e)),
            lambda e: np.asarray(e, dtype=float).copy(),
            lambda e: eye.copy(),
        )


def _natural_frame(family: DistributionFamily, pt: ParameterPoint):
    """theta(pt), the Jacobian J = d theta / du and psi''(theta)."""
    family.validate(pt)
    theta = pt.coords if pt.chart == NATURAL else family._coords_in(pt, NATURAL)
    return theta, family._natural_jacobian(pt), family.hess_potential(theta)


def _pullback(jac, psi2):
    g = jac.swapaxes(-1, -2) @ psi2 @ jac
    return 0.5 * (g + g.swapaxes(-1, -2))


def fisher_metric(family: DistributionFamily, pt: ParameterPoint) -> MetricTensor:
    """Fisher information J^T psi''(theta) J in the chart of pt, at every
    point of a batch: coordinates (..., d) give components (..., d, d)."""
    _, jac, psi2 = _natural_frame(family, pt)
    return MetricTensor(pt.chart, pt, _pullback(jac, psi2))


def legendre_dual(pot: PotentialPair, theta: ParameterPoint):
    """Map a primal point to its dual coordinates and the dual potential value."""
    _require_chart(theta, pot.primal_chart)
    hess = np.atleast_2d(pot.hess_psi(theta.coords))
    if np.any(np.linalg.eigvalsh(hess) <= 0.0):
        raise DegenerateMetricError("potential not strictly convex at theta")
    eta = np.atleast_1d(pot.grad_psi(theta.coords))
    phi_value = float(np.dot(theta.coords, eta) - pot.psi(theta.coords))
    return ParameterPoint(pot.dual_chart, eta), phi_value


def bregman_divergence(pot: PotentialPair, theta: ParameterPoint, eta: ParameterPoint) -> float:
    """psi(theta) + phi(eta) - <theta, eta>; nonnegative, zero iff dual pair."""
    _require_chart(theta, pot.primal_chart)
    _require_chart(eta, pot.dual_chart)
    return float(
        pot.psi(theta.coords) + pot.phi(eta.coords) - np.dot(theta.coords, eta.coords)
    )


def kl_divergence(family: DistributionFamily, p: ParameterPoint, q: ParameterPoint) -> float:
    """D_KL(p || q) in nats; +inf on absolute-continuity violation."""
    family.validate(p)
    family.validate(q)
    return family.kl(p, q)


def pythagorean_gap(
    family: DistributionFamily,
    p: ParameterPoint,
    r: ParameterPoint,
    q: ParameterPoint,
) -> float:
    """Triangle excess D(p||r) + D(r||q) - D(p||q); zero in orthogonal configurations."""
    return (
        kl_divergence(family, p, r)
        + kl_divergence(family, r, q)
        - kl_divergence(family, p, q)
    )


def dual_metrics(pot: PotentialPair, theta: ParameterPoint):
    """Hessian metrics g = psi'' at theta and g* = phi'' at the dual point."""
    _require_chart(theta, pot.primal_chart)
    g = np.atleast_2d(pot.hess_psi(theta.coords))
    if np.any(np.linalg.eigvalsh(g) <= 0.0):
        raise DegenerateMetricError("degenerate primal Hessian")
    eta, _ = legendre_dual(pot, theta)
    g_star = np.atleast_2d(pot.hess_phi(eta.coords))
    return (
        MetricTensor(pot.primal_chart, theta, g),
        MetricTensor(pot.dual_chart, eta, g_star),
    )


def _first_kind(family, pt, alpha, theta, jac, psi2):
    w = 0.5 * (1.0 - alpha)
    # psi''' once per call: the cubic term needs it unless alpha = 1, and the
    # mean chart's bending needs it for every alpha
    psi3 = family.third_potential(theta) if w != 0.0 or pt.chart == MEAN else None
    # psi_ab H^a_ij J^b_k: the bending of the chart, the same for every alpha
    bend = family._natural_jacobian_derivative(pt, jac, psi3)
    lower = np.einsum("aij,ab,bk->ijk", bend, psi2, jac)
    if w != 0.0:
        lower += w * np.einsum("abc,ai,bj,ck->ijk", psi3, jac, jac, jac)
    return lower


def christoffel_first_kind(
    family: DistributionFamily, pt: ParameterPoint, alpha: float
) -> np.ndarray:
    """Lower-index coefficients Gamma^(alpha)_{ij,k}, components[i, j, k]."""
    return _first_kind(family, pt, alpha, *_natural_frame(family, pt))


def christoffel(
    family: DistributionFamily, pt: ParameterPoint, alpha: float
) -> ChristoffelArray:
    """Alpha-connection coefficients Gamma^i_{jk} = g^il Gamma_{jk,l} in the chart of pt."""
    theta, jac, psi2 = _natural_frame(family, pt)
    lower = _first_kind(family, pt, alpha, theta, jac, psi2)
    d = jac.shape[1]
    comps = np.linalg.solve(_pullback(jac, psi2), lower.reshape(d * d, d).T).reshape(d, d, d)
    return ChristoffelArray(pt.chart, pt, float(alpha), comps)


def transform_metric(g: MetricTensor, rot: RotationMap) -> MetricTensor:
    """Pull back the metric along the coordinate change x = R x~."""
    r = rot.matrix
    if r.shape[0] != g.components.shape[0]:
        raise ValueError("rotation dimension does not match metric")
    comps = np.einsum("ki,lj,kl->ij", r, r, g.components)
    return MetricTensor(g.chart, g.at, comps)


def transform_christoffel(
    gamma: ChristoffelArray, rot: RotationMap, jacobian_derivative=None
) -> ChristoffelArray:
    """Pull back connection coefficients along x = R x~.

    For a constant rotation the inhomogeneous term vanishes.  A
    position-dependent map must supply jacobian_derivative[m, j, k] =
    dR^m_j / dx~^k, which contributes R^T . dR.
    """
    r = rot.matrix
    if r.shape[0] != gamma.components.shape[0]:
        raise ValueError("rotation dimension does not match connection")
    comps = np.einsum("mi,nj,pk,mnp->ijk", r, r, r, gamma.components)
    if jacobian_derivative is not None:
        comps = comps + np.einsum("mi,mjk->ijk", r, np.asarray(jacobian_derivative))
    return ChristoffelArray(gamma.chart, gamma.at, gamma.alpha, comps)


def fisher_orthogonal(
    family: DistributionFamily,
    at: ParameterPoint,
    v1: np.ndarray,
    v2: np.ndarray,
) -> float:
    """Fisher inner product of two chart-velocity vectors at a point."""
    g = fisher_metric(family, at).components
    return float(np.asarray(v1) @ g @ np.asarray(v2))


def _require_chart(pt: ParameterPoint, chart: str):
    if pt.chart != chart:
        raise ChartError(f"expected chart {chart!r}, got {pt.chart!r}")


def metric_field(family: DistributionFamily, chart: str):
    """Callable coords -> Fisher metric components, for length integrals."""

    def field_fn(coords):
        return fisher_metric(family, ParameterPoint(chart, coords)).components

    return field_fn


def divergence_hessians(family: DistributionFamily, pt: ParameterPoint):
    """Metrics induced by the KL divergence: Hessian in the first argument at
    coincidence (g) and in the second argument (g*), by central differences
    with step h_i = max(1, |u_i|) eps^(1/4).

    Coordinates (..., d) give g and g* of shape (..., d, d).  The stencils of
    all points are validated and evaluated together, one batched `kl` call
    per argument slot; a batch whose stencils exceed _STENCIL_BLOCK
    coordinates is split into blocks, so memory stays bounded.
    """
    u = pt.coords
    d = u.shape[-1]
    flat = u.reshape(-1, d)
    offsets, diag, mixed = _kl_stencil(d)
    block = max(1, _STENCIL_BLOCK // (len(offsets) * d))
    g = np.empty((flat.shape[0], d, d))
    g_star = np.empty_like(g)
    for start in range(0, flat.shape[0], block):
        rows = slice(start, start + block)
        g[rows], g_star[rows] = _stencil_hessians(family, pt.chart, flat[rows], offsets, diag, mixed)
    return g.reshape(u.shape + (d,)), g_star.reshape(u.shape + (d,))


# Stencil coordinates (stencil points times d) per batched kl call.
_STENCIL_BLOCK = 2**20


def _kl_stencil(d):
    """Offsets, in units of h, of the points the central differences combine:
    the centre, +-e_i for each i, and +-e_i +-e_j for each i < j.  With them,
    the rows (+e_i, -e_i) for each i and (++, +-, -+, --) for each i < j."""
    eye = np.eye(d)
    offsets = [np.zeros(d)]
    diag, mixed = [], {}
    for i in range(d):
        diag.append((len(offsets), len(offsets) + 1))
        offsets += [eye[i], -eye[i]]
    for i in range(d):
        for j in range(i + 1, d):
            mixed[i, j] = tuple(range(len(offsets), len(offsets) + 4))
            offsets += [si * eye[i] + sj * eye[j] for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return np.array(offsets), diag, mixed


def _stencil_hessians(family, chart, u, offsets, diag, mixed):
    """g and g* at the points u (n, d) from one kl call per argument slot."""
    d = u.shape[-1]
    h = np.maximum(1.0, np.abs(u)) * np.finfo(float).eps ** 0.25
    stencil = ParameterPoint(chart, u[:, None, :] + offsets * h[:, None, :])
    family.validate(stencil)  # row 0 of each stencil is the point itself
    centre = ParameterPoint(chart, u[:, None, :])
    hessians = []
    for kl in (family.kl(stencil, centre), family.kl(centre, stencil)):
        m = np.empty(u.shape + (d,))
        for i, (plus, minus) in enumerate(diag):
            m[:, i, i] = (kl[:, plus] - 2.0 * kl[:, 0] + kl[:, minus]) / h[:, i] ** 2
        for (i, j), (pp, pm, mp, mm) in mixed.items():
            m[:, i, j] = m[:, j, i] = (kl[:, pp] - kl[:, pm] - kl[:, mp] + kl[:, mm]) / (
                4.0 * h[:, i] * h[:, j]
            )
        hessians.append(m)
    return hessians
