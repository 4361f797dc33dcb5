"""Dual-affine core: Fisher metrics, Legendre duality, Bregman/KL divergences,
alpha-connection Christoffel symbols, and rotation transforms.

Every family here is exponential, so the Fisher metric and the
alpha-connections have closed forms in the log-partition psi and its dual
phi (Amari & Nagaoka, Methods of Information Geometry, 2000, sections 2.3
and 3.5).  Each flat chart's metric is its potential's Hessian, psi'' or
phi''.  With theta(u) the natural coordinates of a chart point u,
J = d theta / du and H = d^2 theta / du^2,

    Gamma^(alpha)_{ij,k} = (1 - alpha)/2 psi_abc J^a_i J^b_j J^c_k
                           + psi_ab H^a_ij J^b_k.

No expectation is taken.  The alpha-connection family interpolates between
the exponential (alpha = 1), Levi-Civita (alpha = 0), and mixture
(alpha = -1) connections.  Hessians of the KL divergence give the
independent metric route that the length functionals cross-check.

Each family is its own Legendre pair: `legendre_dual`, `bregman_divergence`
and `dual_metrics` take the family, with psi on the natural chart and its
dual phi on the mean chart.  `QuadraticPotential`, the self-dual
|theta|^2 / 2 with the same potential methods, serves the first two.

`fisher_metric`, `divergence_hessians`, `christoffel_first_kind` and
`christoffel` follow the batch convention of `distributions`: a
ParameterPoint with coordinates (..., d) gives metrics (..., d, d) and
connection coefficients (..., d, d, d), and a single point is the no-batch
case of the same code.

The alpha-connection has one route, `geodesic_spray`: the d-vector
Gamma^k_ij v^i v^j that geodesic equations need, from the third cumulant
contracted with the velocity (`cubic_form`), without the d^3 tensor.  In the
mean chart it needs no solve, and in the natural chart psi'' is inverted once
per point.  `christoffel` is the polarised spray: Gamma(v, v) is a symmetric
quadratic form, so Gamma(e_j, e_k) = [Gamma(e_j + e_k) - Gamma(e_j - e_k)] / 4
gives the whole tensor from one spray call, and `christoffel_first_kind`
lowers its index with the metric.  Neither needs the d^3 tensor psi_abc
(`third_potential`), which stays in `distributions` as the reference for
`cubic_form`.
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
from .errors import NonConvergenceError

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
    """Connection coefficients Gamma^i_{jk}; components[..., i, j, k],
    symmetric in (j, k), with the batch axes of the point."""

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


class QuadraticPotential:
    """The self-dual psi(theta) = |theta|^2 / 2 on R^dim, with the potential
    methods of a family: natural and mean coordinates coincide."""

    def __init__(self, dim: int):
        self._eye = np.eye(dim)

    def potential(self, theta):
        return 0.5 * float(np.dot(theta, theta))

    def grad_potential(self, theta):
        return np.asarray(theta, dtype=float).copy()

    def hess_potential(self, theta):
        return self._eye.copy()

    dual_potential = potential
    grad_dual_potential = grad_potential
    hess_dual_potential = hess_potential


def fisher_metric(family: DistributionFamily, pt: ParameterPoint) -> MetricTensor:
    """Fisher information in the chart of pt, at every point of a batch:
    coordinates (..., d) give components (..., d, d).
    Raises DegenerateMetricError where the metric is not finite or not
    positive definite, as where phi'' overflows near the boundary of the mean
    chart or psi'' underflows to 0 far out in the natural chart."""
    family.validate(pt)
    # a metric that overflows fails MetricTensor's test for finite components
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        components = family._fisher_information(pt)
    metric = MetricTensor(pt.chart, pt, components)
    try:
        np.linalg.cholesky(metric.components)
    except np.linalg.LinAlgError:
        raise DegenerateMetricError("Fisher metric not positive definite") from None
    return metric


def legendre_dual(family: DistributionFamily | QuadraticPotential, theta: ParameterPoint):
    """Map a natural-chart point to its mean coordinates and the dual potential value."""
    _require_chart(theta, NATURAL)
    hess = np.atleast_2d(family.hess_potential(theta.coords))
    if np.any(np.linalg.eigvalsh(hess) <= 0.0):
        raise DegenerateMetricError("potential not strictly convex at theta")
    eta = np.atleast_1d(family.grad_potential(theta.coords))
    try:
        with np.errstate(over="raise", invalid="raise"):
            phi_value = float(np.dot(theta.coords, eta) - family.potential(theta.coords))
    except FloatingPointError as exc:
        raise NonConvergenceError(f"dual potential overflows: {exc}") from None
    return ParameterPoint(MEAN, eta), phi_value


def bregman_divergence(
    family: DistributionFamily | QuadraticPotential, theta: ParameterPoint, eta: ParameterPoint
) -> float:
    """psi(theta) + phi(eta) - <theta, eta> for natural theta and mean eta;
    nonnegative, zero iff dual pair."""
    _require_chart(theta, NATURAL)
    _require_chart(eta, MEAN)
    return float(
        family.potential(theta.coords)
        + family.dual_potential(eta.coords)
        - np.dot(theta.coords, eta.coords)
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


def dual_metrics(family: DistributionFamily, theta: ParameterPoint):
    """Fisher metrics g = psi'' at natural theta and g* = phi'' at the dual
    mean point."""
    _require_chart(theta, NATURAL)
    return fisher_metric(family, theta), fisher_metric(family, family.convert(theta, MEAN))


def christoffel_first_kind(
    family: DistributionFamily, pt: ParameterPoint, alpha: float
) -> np.ndarray:
    """Lower-index coefficients Gamma^(alpha)_{ij,k} = g_kl Gamma^l_ij,
    components[..., i, j, k]."""
    g = fisher_metric(family, pt).components
    return np.einsum("...kl,...lij->...ijk", g, christoffel(family, pt, alpha).components)


def christoffel(
    family: DistributionFamily, pt: ParameterPoint, alpha: float
) -> ChristoffelArray:
    """Alpha-connection coefficients Gamma^i_{jk} in the chart of pt:
    coordinates (..., d) give components (..., d, d, d).

    Gamma(v, v) is a symmetric quadratic form in v, so by polarisation
    Gamma(e_j, e_k) = [Gamma(e_j + e_k) - Gamma(e_j - e_k)] / 4: one
    `geodesic_spray` call, on the d (d + 1) velocities e_j +- e_k (j <= k) at
    every point, gives the whole tensor.
    """
    d = pt.coords.shape[-1]
    j, k = np.triu_indices(d)
    eye = np.eye(d)
    rows = geodesic_spray(
        family,
        ParameterPoint(pt.chart, pt.coords[..., None, :]),
        np.concatenate([eye[j] + eye[k], eye[j] - eye[k]]),
        alpha,
    )
    quarter = 0.25 * (rows[..., : len(j), :] - rows[..., len(j) :, :]).swapaxes(-1, -2)
    comps = np.empty(pt.coords.shape[:-1] + (d, d, d))
    comps[..., j, k] = comps[..., k, j] = quarter
    return ChristoffelArray(pt.chart, pt, float(alpha), comps)


def geodesic_spray(
    family: DistributionFamily, pt: ParameterPoint, v: np.ndarray, alpha: float
) -> np.ndarray:
    """The alpha-connection contracted twice with a velocity,
    Gamma^k_ij v^i v^j, at every point of pt: coordinates and velocities
    (..., d) give (..., d), without the d^3 Christoffel tensor.  The batch
    shapes of the points and the velocities broadcast, so points (..., 1, d)
    and velocities (n, d) give n velocities at every point.

    With u = J v the first-kind formula gives
    Gamma(v, v) = J^-1 [(1 - alpha)/2 psi''^-1 psi'''(u, u, .) + H(v, v)]:
    in the natural chart J = 1 and H = 0, and in the mean chart J = phi'' =
    psi''^-1 and H(v, v) = -phi'' psi'''(u, u, .), so there
    Gamma(v, v) = -(1 + alpha)/2 psi'''(u, u, .), which needs no solve.
    """
    family.validate(pt)
    v = np.asarray(v, dtype=float)
    w = 0.5 * (1.0 - alpha)
    if pt.chart == MEAN:
        u = family.hess_dual_potential_product(pt.coords, v)
        return (w - 1.0) * family.cubic_form(family._coords_in(pt, NATURAL), u)
    if pt.chart == NATURAL:
        # psi'' inverted once per point, however many velocities share it
        inv = np.linalg.inv(family.hess_potential(pt.coords))
        return w * (inv @ family.cubic_form(pt.coords, v)[..., None])[..., 0]
    # any other chart: the general form, with one solve by psi'' and one by J
    theta = family._coords_in(pt, NATURAL)
    jac = family._natural_jacobian(pt)
    u = (jac @ v[..., None])[..., 0]
    bend = np.einsum("...aij,...i,...j->...a", family._natural_jacobian_derivative(pt), v, v)
    return _solve_vec(jac, w * _solve_vec(family.hess_potential(theta), family.cubic_form(theta, u)) + bend)


def _solve_vec(a, b):
    """a^-1 b for matrices (..., d, d) and vectors (..., d)."""
    return np.linalg.solve(a, b[..., None])[..., 0]


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
