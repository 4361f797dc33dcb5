"""Continuum analogies: clamped circular membrane under uniform stress and
the metric-compression string model.

The membrane is solved in axisymmetric radial form with a conservative
second-order finite-difference scheme, whose tridiagonal system is a flux
balance that two cumulative sums solve without a matrix; the string model
exposes both the exact arc length, an incomplete elliptic integral, and the
sine approximation, with the discrepancy reported rather than hidden.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipeinc

from .errors import NonConvergenceError


@dataclass(frozen=True)
class MembraneProblem:
    tension: float  # force per length
    pressure: float  # force per area (uniform load)
    radius: float  # clamp radius
    radial_nodes: int = 256

    def __post_init__(self):
        if self.tension <= 0.0:
            raise ValueError("tension must be positive")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.radial_nodes < 16:
            raise ValueError("need at least 16 radial nodes")


@dataclass(frozen=True)
class DeflectionField:
    radii: np.ndarray
    deflections: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        w = np.asarray(self.deflections, dtype=float)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "deflections", w)
        if abs(w[-1]) > 1e-12:
            raise ValueError("clamped edge requires w(R) = 0")
        if not np.all(np.isfinite(w)):
            raise ValueError("deflections must be finite")


def membrane_closed_form(prob: MembraneProblem, r):
    """Parabolic deflection w(r) = p (r^2 - R^2) / (4 T): a float at one
    radius, an array at an array of radii."""
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 <= r) & (r <= prob.radius)):
        raise ValueError("r outside the clamped disk")
    # float_power is libm pow, as r**2 of one radius; r**2 of an array squares,
    # which differs in the last bit at some radii.  Scaling by p / (4 T) first
    # keeps p (r^2 - R^2) from overflowing when the deflection itself is finite.
    w = prob.pressure / (4.0 * prob.tension) * (np.float_power(r, 2) - prob.radius**2)
    return float(w) if w.ndim == 0 else w


def membrane_solve(prob: MembraneProblem, pressure_profile=None) -> DeflectionField:
    """Finite-difference solve of T (w'' + w'/r) = p with w'(0) = 0, w(R) = 0.

    A radially varying load may be supplied as `pressure_profile(r)`, called
    once on the array of unclamped radii (a constant result is broadcast);
    by default the uniform load of the problem is used.  A load, flux or
    deflection that overflows, or a grid spacing whose square underflows
    below the normal doubles, is a NonConvergenceError: the problem is
    valid, but its discrete system is not representable in double precision.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            r, w = _membrane_deflections(prob, pressure_profile)
    except (FloatingPointError, OverflowError) as exc:
        raise NonConvergenceError(f"membrane solve overflowed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise NonConvergenceError("membrane solve overflowed: deflections not finite")
    return DeflectionField(r, np.append(w, 0.0))


def _membrane_deflections(prob, pressure_profile):
    """The radial nodes r_0 .. r_n and the deflections w_0 .. w_{n-1} at the
    unclamped ones.

    Row i of the stencil says that the flux F_i = r_{i+1/2} (w_{i+1} - w_i)
    grows by r_i h^2 f_i, f = load / T, and row 0, the even extension of w
    at r = 0, gives F_0 = h^3 f_0 / 8.  So the steps are
    w_{i+1} - w_i = h^2 cumsum(c)_i / (i + 1/2), with
    c = (f_0 / 8, 1 f_1, .., (n-1) f_{n-1}), and w_i sums the steps from the
    clamped edge, where w_n = 0 (LeVeque, Finite Difference Methods for
    Ordinary and Partial Differential Equations, SIAM 2007, ch. 2).
    """
    n = prob.radial_nodes
    h = prob.radius / n
    h2 = h * h
    if h2 < np.finfo(float).tiny:
        # the stencil's 1 / h^2 overflows, and a subnormal h^2 has lost its digits
        raise OverflowError("grid spacing squared underflows")
    r = np.linspace(0.0, prob.radius, n + 1)
    load = prob.pressure if pressure_profile is None else pressure_profile(r[:n])
    f = np.broadcast_to(np.asarray(load, dtype=float), n) / prob.tension
    i = np.arange(n)
    c = i * f
    c[0] = f[0] / 8.0
    steps = np.cumsum(c) / (i + 0.5) * h2
    return r, -np.cumsum(steps[::-1])[::-1]


def membrane_max_error(prob: MembraneProblem) -> float:
    """Max abs difference between the FD solve and the parabolic solution."""
    field = membrane_solve(prob)
    return float(np.max(np.abs(field.deflections - membrane_closed_form(prob, field.radii))))


def membrane_convergence_order(prob: MembraneProblem, nodes=(64, 128, 256)) -> list:
    """Observed convergence orders under grid doubling; None where an error
    is 0 and there is no order to observe.

    The uniform-load solution is a parabola that second-order stencils
    reproduce to roundoff, so the order is measured on a manufactured
    quartic: load p(r) = p0 (1 + r^2/R^2).
    """
    p0, t, big_r = prob.pressure, prob.tension, prob.radius

    def load(r):
        return p0 * (1.0 + (r / big_r) ** 2)

    def exact(r):
        return (p0 / t) * (r**2 / 4.0 + r**4 / (16.0 * big_r**2) - 5.0 * big_r**2 / 16.0)

    errors = []
    for n in nodes:
        sub = MembraneProblem(t, p0, big_r, n)
        field = membrane_solve(sub, pressure_profile=load)
        try:
            with np.errstate(over="raise", invalid="raise"):
                ref = exact(field.radii)
        except (FloatingPointError, OverflowError) as exc:
            raise NonConvergenceError(f"membrane convergence order overflowed: {exc}") from exc
        errors.append(float(np.max(np.abs(field.deflections - ref))))
    # an error of 0, as under a load that is or underflows to 0, gives no order
    return [
        float(np.log2(e0 / e1)) if e0 > 0.0 and e1 > 0.0 else None
        for e0, e1 in zip(errors, errors[1:])
    ]


@dataclass(frozen=True)
class StringModel:
    """Inelastic-string analogue: profile W(t) = A sin(f_s t), f_s = sum E_q."""

    amplitude: float
    energy_levels: tuple

    def __post_init__(self):
        levels = tuple(float(e) for e in np.atleast_1d(self.energy_levels))
        object.__setattr__(self, "energy_levels", levels)
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be nonnegative")
        if not levels or any(e <= 0.0 for e in levels):
            raise ValueError("energy levels must be positive")

    @property
    def total_frequency(self) -> float:
        return float(sum(self.energy_levels))


def string_profile(model: StringModel, t: float) -> float:
    return float(model.amplitude * np.sin(model.total_frequency * t))


def string_arc_length_exact(model: StringModel, x: float) -> float:
    """True arc length of the profile on [0, x]; always >= x.

    The integral of sqrt(1 + c^2 cos^2(f_s u)), c = A f_s, is
    sqrt(1 + c^2) / f_s * E(f_s x | c^2 / (1 + c^2)) with E the incomplete
    elliptic integral of the second kind (DLMF 19.2.5).  It is evaluated as
    x sqrt(1 + c^2) E(phi | m) / phi, phi = f_s x, so that a phase that
    underflows, where E(phi | m) / phi -> 1, still gives the chord x.  A length
    that is not representable in double precision is a NonConvergenceError.
    """
    if x <= 0.0:
        raise ValueError("endpoint must be positive")
    phi = model.total_frequency * x
    c = model.amplitude * model.total_frequency
    h = math.hypot(1.0, c)
    ratio = float(ellipeinc(phi, (c / h) ** 2)) / phi if phi > 0.0 else 1.0
    val = x * ratio * h
    if not math.isfinite(val):
        raise NonConvergenceError("arc length overflows double precision")
    return val


def string_effective_length(model: StringModel, x: float) -> float:
    """The sine approximation l ~ sin(f_s x)."""
    if x <= 0.0:
        raise ValueError("endpoint must be positive")
    return float(np.sin(model.total_frequency * x))


@dataclass(frozen=True)
class StringLengthReport:
    approximate: float  # sin(f_s x)
    exact: float  # true arc length
    discrepancy: float  # |approximate - exact|
    relative_discrepancy: float


def string_length_report(model: StringModel, x: float) -> StringLengthReport:
    """Approximation diagnostics: the dropped-term error is measured, not hidden."""
    # exact first: a phase f_s x that overflows ends here, before sin(inf)
    exact = string_arc_length_exact(model, x)
    approx = string_effective_length(model, x)
    return StringLengthReport(
        approximate=approx,
        exact=exact,
        discrepancy=abs(approx - exact),
        relative_discrepancy=abs(approx - exact) / abs(exact),
    )


@dataclass(frozen=True)
class QuantizationCheck:
    wavelength: float
    waves_on_domain: float  # x / wavelength
    wavelength_over_domain: float  # the reciprocal ratio, reported alongside
    is_integer: bool


def wavelength_quantization_check(model: StringModel, x: float, tol: float = 1e-9) -> QuantizationCheck:
    """Test whether the domain holds an integer number of wavelengths.  A
    wavelength, or its ratio to the domain, that is not representable in
    double precision is a NonConvergenceError."""
    if x <= 0.0:
        raise ValueError("endpoint must be positive")
    lam = 2.0 * math.pi / model.total_frequency
    if not (math.isfinite(lam) and math.isfinite(lam / x)):
        raise NonConvergenceError("wavelength overflows double precision")
    ratio = x / lam
    return QuantizationCheck(
        wavelength=float(lam),
        waves_on_domain=float(ratio),
        wavelength_over_domain=float(lam / x),
        is_integer=bool(abs(ratio - round(ratio)) <= tol),
    )


def superposed_wave(b: float, k: float, omega: float, phi: float, x: float, t: float) -> float:
    """Difference of two phase-shifted traveling waves with A = 2 B cos(phi/2)."""
    a = 2.0 * b * np.cos(phi / 2.0)
    arg = k * x - omega * t
    return float(a * (np.sin(arg + phi) - np.sin(arg)))
