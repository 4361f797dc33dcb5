"""Closed-form oracles and their tolerances.

Every op the benchmark times is checked against one of these.  None of them
calls into `dualgeo`: they are the paper's identities written out directly.

Tolerances were set from the largest error measured on seeds 0-29 of each
workload (0-11 for geodesic_shoot) at the commit that introduced the benchmark, times the margin given
next to each one.  A tolerance is never widened to absorb a failure: if an
op misses, the op fails.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import ellipeinc

# -- tolerances (relative unless the name says ABS) ------------------------

# Levi-Civita geodesic, 8-16 RK4 steps, sampled at 65 points: primal_length
# against the Fisher-Rao distance.  Measured max 1.4e-4; margin x3.5.
GEODESIC_LENGTH_RTOL = 5e-4
# Straight paths of 33-129 samples.  The dual length (the grad-psi image
# path under g*) against the primal length: measured max 6.7e-4; margin x3.
DUAL_LENGTH_RTOL = 2e-3
# harmonic against primal: measured max 2.3e-7; margin x4.
HARMONIC_LENGTH_RTOL = 1e-6
# divergence_based against sqrt(2) * primal (finite-difference KL
# Hessians): measured max 3.7e-7; margin x5.
DIVERGENCE_LENGTH_RTOL = 2e-6
# Bernoulli primal length against 2|arcsin sqrt b - arcsin sqrt a| (measured
# max 6.1e-4), and the bound primal >= Fisher-Rao distance for every family
# (missed by at most 1.9e-4 of quadrature error); margin x3.
BERNOULLI_LENGTH_RTOL = 2e-3
# Tsirelson scan against the Horodecki maximum: measured max 1.3e-15 (three
# ulps of 2.8); margin x15.
CHSH_ABS = 2e-14
# Berry phase of a latitude loop of >= 500 segments: measured max 1.6e-5;
# margin x6.
BERRY_LOOP_ABS = 1e-4
# Curvature flux through a polar-cap mesh of >= 64 x 128 plaquettes:
# measured max 2.4e-4; margin x4.
BERRY_SURFACE_ABS = 1e-3
# Membrane finite differences reproduce the parabola up to rounding:
# measured max 4.8e-12 relative to the centre deflection; margin x10.
MEMBRANE_RTOL = 5e-11
# Adaptive quadrature of the string arc length against the incomplete
# elliptic integral: measured max 4.5e-16; margin x20.
STRING_RTOL = 1e-14
# Schmidt entropy of a controlled rotation and the E + C split: measured max
# 6.1e-16; margin x16.
QUANTUM_ABS = 1e-14
# Fisher metric, Legendre pair and KL values read back from 17-digit tables.
CLI_RTOL = 1e-10


def rel_err(value, ref):
    return abs(value - ref) / max(abs(ref), 1e-300)


# -- Fisher-Rao distances ---------------------------------------------------


def fisher_rao_bernoulli(a, b):
    """Distance between Bernoulli(a) and Bernoulli(b): 2|arcsin sqrt b - arcsin sqrt a|."""
    return 2.0 * abs(math.asin(math.sqrt(b)) - math.asin(math.sqrt(a)))


def fisher_rao_categorical(p, q):
    """Distance between two full probability vectors: 2 arccos sum sqrt(p_i q_i)."""
    bc = float(np.sum(np.sqrt(np.asarray(p) * np.asarray(q))))
    return 2.0 * math.acos(min(bc, 1.0))


def fisher_rao_gaussian(mu1, s1, mu2, s2):
    """Distance between N(mu1, s1^2) and N(mu2, s2^2) (Atkinson & Mitchell 1981)."""
    arg = 1.0 + ((mu2 - mu1) ** 2 / 2.0 + (s2 - s1) ** 2) / (2.0 * s1 * s2)
    return math.sqrt(2.0) * math.acosh(arg)


def bernoulli_kl_natural(tp, tq):
    """KL(p || q) for Bernoulli log-odds tp, tq without forming the means.

    KL = psi(tq) - psi(tp) - sigmoid(tp) (tq - tp), and softplus(x) -
    softplus(-x) = x keeps it finite for any finite log-odds.
    """

    def softplus(x):
        return max(x, 0.0) + math.log1p(math.exp(-abs(x)))

    sig = 1.0 / (1.0 + math.exp(-tp)) if tp >= 0 else math.exp(tp) / (1.0 + math.exp(tp))
    return softplus(tq) - softplus(tp) - sig * (tq - tp)


def bernoulli_kl_mean(p, q):
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


# -- quantum ----------------------------------------------------------------

_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def chsh_max_horodecki(amplitudes):
    """Largest |S| over analyzers in the z-x plane: 2 sqrt(s1^2 + s2^2), with s
    the singular values of the z-x block of the correlation matrix
    (Horodecki et al., Phys. Lett. A 200, 1995)."""
    c = np.asarray(amplitudes, dtype=complex)
    paulis = (_Z, _X)
    t = np.array(
        [[np.sum(c.conj() * (si @ c @ sj.T)).real for sj in paulis] for si in paulis]
    )
    s = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2)


def berry_cap_phase(theta_c):
    """Spin-1/2 phase of the latitude loop at polar angle theta_c: -pi (1 - cos theta_c)."""
    return -math.pi * (1.0 - math.cos(theta_c))


def controlled_rotation_entropy(theta):
    """Entropy (nats) of (|00> + |1>R(theta)|0>)/sqrt 2: Schmidt weights (1 +- cos theta)/2."""
    lam = np.array([(1.0 + math.cos(theta)) / 2.0, (1.0 - math.cos(theta)) / 2.0])
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


# -- continuum --------------------------------------------------------------


def membrane_parabola(tension, pressure, radius, r):
    """Clamped-membrane deflection w(r) = p (r^2 - R^2) / (4 T)."""
    return pressure * (np.asarray(r) ** 2 - radius**2) / (4.0 * tension)


def string_arc_length(amplitude, fs, x):
    """Arc length of A sin(fs t) on [0, x] as an incomplete elliptic integral:
    sqrt(1 + a^2) / fs * E(fs x | a^2 / (1 + a^2)), a = A fs."""
    a2 = (amplitude * fs) ** 2
    return math.sqrt(1.0 + a2) / fs * float(ellipeinc(fs * x, a2 / (1.0 + a2)))
