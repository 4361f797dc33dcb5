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
|theta|^2 / 2 with the same potential methods, serves `legendre_dual`.

`fisher_metric`, `divergence_hessians`, `christoffel_first_kind` and
`christoffel` follow the batch convention of `distributions`: a
ParameterPoint with coordinates (..., d) gives metrics (..., d, d) and
connection coefficients (..., d, d, d), and a single point is the no-batch
case of the same code.

The alpha-connection has one route, `geodesic_spray`: the d-vector
Gamma^k_ij v^i v^j that geodesic equations need, from the third cumulant
contracted with the velocity (`cubic_form`) and psi''^-1 applied to a vector
(`hess_potential_solve`), each in closed form, with no d^3 tensor and no
solve.  `christoffel` is the polarised spray: Gamma(v, v) is a symmetric
quadratic form, so Gamma(e_j, e_k) = [Gamma(e_j + e_k) - Gamma(e_j - e_k)] / 4
gives the whole tensor from one spray call, and `christoffel_first_kind`
lowers its index with the metric.  Neither needs the d^3 tensor psi_abc,
which only the tests write out, as the reference for `cubic_form`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

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


def bregman_divergence(family: DistributionFamily, theta: ParameterPoint, p: ParameterPoint) -> float:
    """psi(theta) + phi(eta) - <theta, eta> for natural theta and the mean
    coordinates eta of p, a point in any chart of the family; nonnegative,
    zero iff dual pair.  phi is evaluated from p's own chart
    (`dual_potential_at`), so it keeps what p's chart holds: the Gaussian's
    sigma, which eta2 - eta1^2 loses far from mu = 0."""
    _require_chart(theta, NATURAL)
    eta = family.convert(p, MEAN).coords
    return float(family.potential(theta.coords) + family.dual_potential_at(p) - np.dot(theta.coords, eta))


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
    Gamma(v, v) = -(1 + alpha)/2 psi'''(u, u, .).  Both apply psi''^-1 from
    theta (`hess_potential_solve`).  The Gaussian raw chart (mu, sigma) has
    Gamma(v, v) = (-2 (1 + alpha) mu' sigma', (1 - alpha) mu'^2 / 2
    - (1 + 2 alpha) sigma'^2) / sigma (Amari & Nagaoka 2000, section 2.3).
    """
    family.validate(pt)
    v = np.asarray(v, dtype=float)
    w = 0.5 * (1.0 - alpha)
    if pt.chart == NATURAL:
        return w * family.hess_potential_solve(pt.coords, family.cubic_form(pt.coords, v))
    if pt.chart == MEAN:
        theta = family._coords_in(pt, NATURAL)
        return (w - 1.0) * family.cubic_form(theta, family.hess_potential_solve(theta, v))
    # the one other chart, the Gaussian's raw (mu, sigma)
    dmu, dsigma = v[..., 0], v[..., 1]
    gamma = np.stack([-2.0 * (1.0 + alpha) * dmu * dsigma, w * dmu**2 - (1.0 + 2.0 * alpha) * dsigma**2], axis=-1)
    return gamma / pt.coords[..., 1:]


def transform_metric(g: MetricTensor, rot: RotationMap) -> MetricTensor:
    """Pull back the metric along the coordinate change x = R x~."""
    r = rot.matrix
    if r.shape[0] != g.components.shape[0]:
        raise ValueError("rotation dimension does not match metric")
    comps = np.einsum("ki,lj,kl->ij", r, r, g.components)
    return MetricTensor(g.chart, g.at, comps)


def transform_christoffel(gamma: ChristoffelArray, rot: RotationMap) -> ChristoffelArray:
    """Pull back connection coefficients along x = R x~; for a constant
    rotation the inhomogeneous term vanishes."""
    r = rot.matrix
    if r.shape[0] != gamma.components.shape[0]:
        raise ValueError("rotation dimension does not match connection")
    comps = np.einsum("mi,nj,pk,mnp->ijk", r, r, r, gamma.components)
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

    Coordinates (..., d) give g and g* of shape (..., d, d).  A point's
    stencil rows are the point itself, then u +- h_i e_i for each i (the
    diagonal), then the corners (+, +), (+, -), (-, +), (-, -) of
    u +- h_i e_i +- h_j e_j for each pair i < j in `np.triu_indices(d, 1)`
    order (the entries (i, j) and (j, i)).  The stencils of all points are
    validated and evaluated together, one batched `kl` call per argument
    slot; a batch whose stencils exceed _STENCIL_BLOCK coordinates is split
    into blocks, so memory stays bounded.
    """
    u = pt.coords
    d = u.shape[-1]
    flat = u.reshape(-1, d)
    offsets, (i, j) = _kl_stencil(d)
    block = max(1, _STENCIL_BLOCK // (len(offsets) * d))
    g = np.empty((flat.shape[0], d, d))
    g_star = np.empty_like(g)
    for start in range(0, flat.shape[0], block):
        rows = slice(start, start + block)
        x = flat[rows]
        h = np.maximum(1.0, np.abs(x)) * np.finfo(float).eps ** 0.25
        stencil = ParameterPoint(pt.chart, x[:, None, :] + offsets * h[:, None, :])
        family.validate(stencil)  # row 0 of each stencil is the point itself
        centre = ParameterPoint(pt.chart, x[:, None, :])
        h_ii, h_ij = h**2, 4.0 * h[:, i] * h[:, j]
        for m, kl in zip((g[rows], g_star[rows]), (family.kl(stencil, centre), family.kl(centre, stencil))):
            a = kl[:, 1 : 2 * d + 1].reshape(len(x), d, 2)
            c = kl[:, 2 * d + 1 :].reshape(len(x), len(i), 4)
            m.reshape(-1, d * d)[:, :: d + 1] = (a[..., 0] - 2.0 * kl[:, :1] + a[..., 1]) / h_ii
            m[:, i, j] = m[:, j, i] = (c[..., 0] - c[..., 1] - c[..., 2] + c[..., 3]) / h_ij
    return g.reshape(u.shape + (d,)), g_star.reshape(u.shape + (d,))


# Stencil coordinates (stencil points times d) per batched kl call.
_STENCIL_BLOCK = 2**20


@cache
def _kl_stencil(d):
    """Offsets, in units of h, of the stencil points in the row order of
    `divergence_hessians`, and the pairs (i, j), i < j, of its corners."""
    eye = np.eye(d)
    i, j = np.triu_indices(d, 1)
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    axis = np.stack([eye, -eye], axis=1)
    corners = signs[:, :1] * eye[i][:, None, :] + signs[:, 1:] * eye[j][:, None, :]
    offsets = np.concatenate([np.zeros((1, d)), axis.reshape(-1, d), corners.reshape(-1, d)])
    offsets.flags.writeable = i.flags.writeable = j.flags.writeable = False
    return offsets, (i, j)
