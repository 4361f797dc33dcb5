"""Bipartite measurement engine: joint distributions, correlators, CHSH sums,
the classical polytope, Tsirelson-point scans, and the geometric correlator.

Analyzer directions live in the z-x great circle: the +/-1 observable for an
angle a is cos(a) sigma_z + sin(a) sigma_x.  Every quantity is a formula in
the Pauli moments of the state: joint distributions and correlators in the
local Bloch vectors and the 2x2 z-x correlation block T, and the largest
|S| over all settings is 2 ||T||_F (Horodecki et al., Phys. Lett. A 200, 340
(1995), restricted to the z-x plane).  No optimizer runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .quantum import PAULI_X, PAULI_Z, BipartiteState, DimensionMismatchError
from .tables import ScanTable

ALICE = "alice"
BOB = "bob"

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)
_REGIME_TOL = 1e-9


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported when called.  Nothing calls it:
    bench/tracing.py wraps this name and reports its metrics until the
    benchmark drops that target (ROADMAP item 6).  A module-level import
    would load scipy.optimize into every process that imports dualgeo."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class MeasurementSetting:
    angle: float
    party: str = ALICE

    def __post_init__(self):
        if not np.isfinite(self.angle):
            raise ValueError("setting angle must be finite")
        if self.party not in (ALICE, BOB):
            raise ValueError(f"unknown party {self.party!r}")


@dataclass(frozen=True)
class JointDistribution:
    """p(s_A, s_B); probs[i, j] with index 0 -> +1 and 1 -> -1."""

    probs: np.ndarray
    settings: tuple  # (MeasurementSetting, MeasurementSetting)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.shape != (2, 2):
            raise ValueError("joint distribution needs a 2x2 probability table")
        if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")


@dataclass(frozen=True)
class CHSHResult:
    s_value: float
    settings: tuple  # (a, a_prime, b, b_prime) angles
    correlators: dict  # {"ab": E(a,b), ...}
    regime: str


def observable(angle: float) -> np.ndarray:
    return np.cos(angle) * PAULI_Z + np.sin(angle) * PAULI_X


def singlet() -> BipartiteState:
    return BipartiteState(np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0))


def product_state(a=(1.0, 0.0), b=(1.0, 0.0)) -> BipartiteState:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return BipartiteState(np.outer(a, b))


def schmidt_pair(p: float) -> BipartiteState:
    """sqrt(p)|00> + sqrt(1-p)|11>."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    return BipartiteState(np.diag([np.sqrt(p), np.sqrt(1.0 - p)]))


def joint_distribution(
    state: BipartiteState, a: MeasurementSetting, b: MeasurementSetting
) -> JointDistribution:
    """Outcome probabilities p(s, t) = (1 + s r_A.u(a) + t r_B.u(b) +
    s t u(a) T u(b)) / 4, with r_A, r_B the z-x Bloch vectors of the two
    parties, T the correlation block and u(a) = (cos a, sin a)."""
    m = _pauli_moments(state)
    va = [[1.0, s * math.cos(a.angle), s * math.sin(a.angle)] for s in (+1.0, -1.0)]
    vb = [[1.0, t * math.cos(b.angle), t * math.sin(b.angle)] for t in (+1.0, -1.0)]
    probs = np.clip(np.array(va) @ m @ np.array(vb).T / 4.0, 0.0, None)
    probs /= probs.sum()
    return JointDistribution(probs, (a, b))


def correlator(d: JointDistribution) -> float:
    """E = sum s_A s_B p(s_A, s_B)."""
    p = d.probs
    return float(p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0])


def geometric_correlator(d: JointDistribution) -> float:
    """1 - 2 Omega with Omega the outcome-disagreement probability.

    Algebraically identical to the correlator for two-outcome distributions.
    """
    omega = float(d.probs[0, 1] + d.probs[1, 0])
    return 1.0 - 2.0 * omega


_PAULIS = np.stack([np.eye(2, dtype=complex), PAULI_Z, PAULI_X])


def _pauli_moments(state: BipartiteState) -> np.ndarray:
    """M[k, l] = <psi| s_k (x) s_l |psi> for s = (1, sigma_z, sigma_x): M[0, 0]
    is 1, M[1:, 0] and M[0, 1:] are the z-x Bloch vectors of the two parties
    and M[1:, 1:] is the correlation block."""
    if state.dims != (2, 2):
        raise DimensionMismatchError("CHSH engine needs a two-qubit state")
    c = state.amplitudes
    # <psi| A (x) B |psi> = sum_ib (A C)_ib (conj(C) B)_ib
    return ((_PAULIS @ c).reshape(3, 4) @ (c.conj() @ _PAULIS).reshape(3, 4).T).real


def correlation_block(state: BipartiteState) -> np.ndarray:
    """T[k, l] = <psi| sigma_k (x) sigma_l |psi> for k, l in (z, x).

    Every z-x analyzer correlator is E(a, b) = u(a) T u(b), u(a) = (cos a, sin a).
    """
    return _pauli_moments(state)[1:, 1:]


def _correlator(t, a, b) -> float:
    ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
    return ca * (t[0][0] * cb + t[0][1] * sb) + sa * (t[1][0] * cb + t[1][1] * sb)


def chsh_S(
    state: BipartiteState,
    a: float,
    a_prime: float,
    b: float,
    b_prime: float,
) -> CHSHResult:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b'), with every E read off the
    correlation block."""
    if not all(math.isfinite(v) for v in (a, a_prime, b, b_prime)):
        raise ValueError("setting angle must be finite")
    t = correlation_block(state).tolist()
    es = {
        "ab": _correlator(t, a, b),
        "ab'": _correlator(t, a, b_prime),
        "a'b": _correlator(t, a_prime, b),
        "a'b'": _correlator(t, a_prime, b_prime),
    }
    s = es["ab"] - es["ab'"] + es["a'b"] + es["a'b'"]
    if abs(s) <= CLASSICAL_BOUND + _REGIME_TOL:
        regime = "classical"
    elif abs(s) <= TSIRELSON_BOUND + _REGIME_TOL:
        regime = "quantum"
    else:
        regime = "super-quantum"
    return CHSHResult(float(s), (a, a_prime, b, b_prime), es, regime)


@dataclass(frozen=True)
class PolytopeResult:
    max_value: float
    min_value: float
    maximizers: list  # deterministic strategies (A(a), A(a'), B(b), B(b')) achieving max


def classical_polytope_max() -> PolytopeResult:
    """Enumerate all 16 deterministic local strategies; the maximum is exactly 2."""
    best = -np.inf
    worst = np.inf
    maximizers = []
    for strat in product((+1, -1), repeat=4):
        aa, aap, bb, bbp = strat
        s = aa * bb - aa * bbp + aap * bb + aap * bbp
        if s > best:
            best = s
            maximizers = [strat]
        elif s == best:
            maximizers.append(strat)
        worst = min(worst, s)
    return PolytopeResult(float(best), float(worst), maximizers)


def loop_excess(state, a, a_prime, b, b_prime) -> float:
    """Geometric surplus over the classical bound: max(0, |S| - 2)."""
    res = chsh_S(state, a, a_prime, b, b_prime)
    return max(0.0, abs(res.s_value) - CLASSICAL_BOUND)


_TIE_TOL = 1e-12
# index pairs (a, a') per block of the Tsirelson grid search
_SCAN_BLOCK = 2**12
_WINDOW = np.arange(-1, 2)


def _extreme_windows(coef: np.ndarray, n: int):
    """Column indices (pairs, 3) of the three grid entries around the maximum
    and around the minimum of each sinusoid coef[k] . u(b) on the n-angle
    grid.  The indices lie in [-n/2 - 1, n/2 + 1]; numpy reads a negative
    index modulo n."""
    at = np.arctan2(coef[:, 1], coef[:, 0]) * (n / (2.0 * np.pi))  # in [-n/2, n/2]
    peak = np.rint(at).astype(np.intp)
    trough = np.rint(at - np.copysign(0.5 * n, at)).astype(np.intp)
    return peak[:, None] + _WINDOW, trough[:, None] + _WINDOW


def _pair_best(e: np.ndarray, tu: np.ndarray) -> np.ndarray:
    """best[a, a'], the largest |S| over (b, b') on the correlator grid
    e = tu @ u.T, where tu = u @ T and u holds the grid's unit vectors.

    S = (E[a,b] + E[a',b]) + (E[a',b'] - E[a,b']) separates in b and b', so
    best[a, a'] takes the extremes of two rows, each a sinusoid in b:
    e[a] + e[a'] has the coefficient tu[a] + tu[a'] and e[a'] - e[a] has
    tu[a'] - tu[a].  A sinusoid's grid maximum lies at the index nearest its
    coefficient's angle and its minimum at the index nearest the antipode,
    so each extreme is read from the three entries around that index.
    Exchanging a and a' keeps the sum row and negates the difference row
    exactly, so one pass over the pairs a <= a' fills best[a, a'] and
    best[a', a] with the floating sums a full row scan forms.  The pairs go
    in blocks of rows, so temporaries stay O(_SCAN_BLOCK) and best is the
    one N x N array the search adds to e.

    Where a coefficient is within rounding of 0 (a' = a + pi on an even
    grid, a product state's rank-1 T, T = 0) the row is rounding noise and
    its float extreme may lie outside the three entries; best then differs
    from a full row scan by a few ulps, far inside _TIE_TOL.
    """
    n = e.shape[0]
    best = np.empty((n, n))  # best[a, a'] = max |S| over (b, b')
    rows_per_block = max(1, _SCAN_BLOCK // n)
    for start in range(0, n, rows_per_block):
        # the pairs a <= a' with a in this block of rows
        stop = min(start + rows_per_block, n)
        ia, iap = np.nonzero(np.arange(start, n) >= np.arange(start, stop)[:, None])
        ia += start
        iap += start
        a_rows, ap_rows = ia[:, None], iap[:, None]
        ta, tap = tu[ia], tu[iap]
        top, bottom = _extreme_windows(ta + tap, n)
        plus_max = (e[a_rows, top] + e[ap_rows, top]).max(axis=1)
        plus_min = (e[a_rows, bottom] + e[ap_rows, bottom]).min(axis=1)
        top, bottom = _extreme_windows(tap - ta, n)
        minus_max = (e[ap_rows, top] - e[a_rows, top]).max(axis=1)
        minus_min = (e[ap_rows, bottom] - e[a_rows, bottom]).min(axis=1)
        best[ia, iap] = np.maximum(plus_max + minus_max, -(plus_min + minus_min))
        # at (a', a) the difference row's extremes are -minus_min and -minus_max
        best[iap, ia] = np.maximum(plus_max - minus_min, minus_max - plus_min)
    return best


def _scan_grid(e: np.ndarray, tu: np.ndarray):
    """Grid optimum of |S| over index quadruples (a, a', b, b') of the
    correlator grid e = tu @ u.T, in O(N^2) time and memory: the
    lexicographically smallest pair (a, a') whose best |S| (`_pair_best`)
    lies within _TIE_TOL of the largest, then the smallest (b, b') for that
    pair.  best is released before the (b, b') step, whose |S| block is
    formed and made absolute in one N x N array beside e."""
    n = e.shape[0]
    best = _pair_best(e, tu)
    threshold = best.max() - _TIE_TOL
    ia, iap = divmod(int(np.argmax(best >= threshold)), n)
    del best
    s_block = np.add.outer(e[ia] + e[iap], e[iap] - e[ia])
    np.abs(s_block, out=s_block)
    ib, ibp = divmod(int(np.argmax(s_block >= threshold)), n)
    return ia, iap, ib, ibp


def tsirelson_scan(state: BipartiteState, grid_size: int) -> ScanTable:
    """Grid scan of |S| over the four settings, followed by the closed-form
    optimum.

    The grid holds grid_size equally spaced angles in [0, 2 pi) for each
    setting. Its optimum is the lexicographically smallest index quadruple
    (a, a', b, b') whose |S| lies within 1e-12 of the grid maximum, so the
    choice does not depend on the rounding of near-equal maxima.

    The refined row is an exact maximizer. With b, b' = phi +/- delta,
    S = 2 sin(delta) u(a) T u(phi + pi/2) + 2 cos(delta) u(a') T u(phi), so
    a = arg T u(phi + pi/2), a' = arg T u(phi) and tan(delta) =
    |T u(phi + pi/2)| / |T u(phi)| give S = 2 ||T||_F, the largest |S|, for
    every phi. phi is the midpoint (b + b') / 2 of the grid optimum's b and
    b'. Each refined angle is wrapped into [0, 2 pi); the refined S is
    2 ||T||_F >= 0 up to rounding.

    Returns a table with the grid row and the refined row; the refined row
    carries the reported maximum.
    """
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    t = correlation_block(state)
    angles = np.linspace(0.0, 2.0 * np.pi, grid_size, endpoint=False)
    u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    tu = u @ t
    e = tu @ u.T  # e[i, j] = E(angles[i], angles[j])
    ia, iap, ib, ibp = _scan_grid(e, tu)
    grid_settings = np.array([angles[ia], angles[iap], angles[ib], angles[ibp]])
    grid_s = float(e[ia, ib] - e[ia, ibp] + e[iap, ib] + e[iap, ibp])
    refined = _closed_form_settings(t, 0.5 * (grid_settings[2] + grid_settings[3]))
    refined_res = chsh_S(state, *refined)
    rows = [
        list(grid_settings) + [grid_s, abs(grid_s), 0.0],
        refined + [refined_res.s_value, abs(refined_res.s_value), 1.0],
    ]
    meta = {
        "operation": "tsirelson_scan",
        "grid_size": int(grid_size),
        "max_abs_S": abs(refined_res.s_value),
        "argmax_settings": refined,
        "regime": refined_res.regime,
    }
    return ScanTable(
        ("a", "a_prime", "b", "b_prime", "S", "abs_S", "refined"), rows, meta
    )


def _closed_form_settings(t: np.ndarray, phi: float) -> list:
    """(a, a', b, b') reaching S = 2 ||T||_F with b, b' = phi +/- delta,
    each angle wrapped into [0, 2 pi)."""
    tq = t @ np.array([math.cos(phi), math.sin(phi)])  # T u(phi)
    tp = t @ np.array([-math.sin(phi), math.cos(phi)])  # T u(phi + pi/2)
    delta = math.atan2(math.hypot(*tp), math.hypot(*tq))
    raw = (math.atan2(tp[1], tp[0]), math.atan2(tq[1], tq[0]), phi + delta, phi - delta)
    tau = 2.0 * math.pi
    # x % tau rounds up to tau itself for x just below 0
    return [w if w < tau else 0.0 for w in (x % tau for x in raw)]
