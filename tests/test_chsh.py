"""Joint distributions, correlators, CHSH, and the Tsirelson scan."""
import tracemalloc

import numpy as np
import pytest

from dualgeo import chsh as C
from dualgeo.quantum import BipartiteState, DimensionMismatchError

RNG = np.random.default_rng(20240821)

A_OPT = (0.0, np.pi / 2.0, np.pi / 4.0, 3.0 * np.pi / 4.0)


def random_two_qubit(rng=RNG):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a /= np.linalg.norm(a)
    return BipartiteState(a)


def observable_correlator(state, angle_a, angle_b):
    """Oracle: E(a, b) = <psi| O(a) (x) O(b) |psi> from the 2x2 observables."""
    c = state.amplitudes
    x = C.observable(angle_a) @ c @ C.observable(angle_b).T
    return float(np.sum(c.conj() * x).real)


def projector_distribution(state, angle_a, angle_b):
    """Oracle: p(s, t) = <psi| P_s(a) (x) P_t(b) |psi> from the +/-1 projectors."""
    eye = np.eye(2, dtype=complex)
    proj_a = [(eye + s * C.observable(angle_a)) / 2.0 for s in (+1.0, -1.0)]
    proj_b = [(eye + s * C.observable(angle_b)) / 2.0 for s in (+1.0, -1.0)]
    c = state.amplitudes
    # <psi| P_a (x) P_b |psi> = tr(C^dag P_a C P_b^T)
    return np.array(
        [[np.trace(c.conj().T @ pa @ c @ pb.T).real for pb in proj_b] for pa in proj_a]
    )


def horodecki_max(state):
    """Largest |S| over z-x analyzers: 2 sqrt(s1^2 + s2^2), s the singular
    values of the z-x correlation block (Horodecki et al., Phys. Lett. A 200, 1995)."""
    z, x = 0.0, np.pi / 2.0
    t = np.array([[observable_correlator(state, k, l) for l in (z, x)] for k in (z, x)])
    s = np.linalg.svd(t, compute_uv=False)
    return 2.0 * np.sqrt(s[0] ** 2 + s[1] ** 2)


def brute_force_grid_argmax(state, n):
    """Oracle: the full N^4 |S| tensor; the lexicographically smallest index
    quadruple within 1e-12 of its maximum."""
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    e = np.array([[observable_correlator(state, a, b) for b in angles] for a in angles])
    s4 = np.abs(
        e[:, None, :, None] - e[:, None, None, :] + e[None, :, :, None] + e[None, :, None, :]
    )
    flat = np.argmax(s4 >= s4.max() - 1e-12)
    return np.unravel_index(flat, s4.shape)


def property_states(rng, n):
    """Random states, with every fourth one a product state, a state with
    zeroed amplitudes or a real state: these give rank-deficient or sparse
    correlation blocks, where grid maxima tie."""
    states = []
    for k in range(n):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if k % 4 == 1:
            a = np.outer(rng.normal(size=2) + 1j * rng.normal(size=2), rng.normal(size=2))
        elif k % 4 == 2:
            a = np.where(rng.random((2, 2)) < 0.5, a, 0.0)
            a.flat[rng.integers(4)] = 1.0
        elif k % 4 == 3:
            a = a.real.astype(complex)
        states.append(BipartiteState(a / np.linalg.norm(a)))
    return states


def scan_states():
    rng = np.random.default_rng(5)
    return [C.singlet(), C.schmidt_pair(0.9), C.product_state()] + [
        random_two_qubit(rng) for _ in range(3)
    ]


# -- settings and distributions -----------------------------------------


def test_setting_validation():
    with pytest.raises(ValueError):
        C.MeasurementSetting(np.inf)
    with pytest.raises(ValueError):
        C.MeasurementSetting(0.0, party="carol")


def test_joint_distribution_normalized():
    d = C.joint_distribution(
        C.singlet(), C.MeasurementSetting(0.3), C.MeasurementSetting(1.1, C.BOB)
    )
    assert abs(d.probs.sum() - 1.0) < 1e-12
    assert np.all(d.probs >= 0.0)


def test_singlet_correlator_closed_form():
    # E(a, b) = -cos(a - b) for the singlet
    for a, b in ((0.0, 0.0), (0.3, 1.0), (2.0, 0.5)):
        d = C.joint_distribution(
            C.singlet(), C.MeasurementSetting(a), C.MeasurementSetting(b, C.BOB)
        )
        assert abs(C.correlator(d) - (-np.cos(a - b))) < 1e-12


def test_singlet_marginals_uniform():
    d = C.joint_distribution(
        C.singlet(), C.MeasurementSetting(0.7), C.MeasurementSetting(2.1, C.BOB)
    )
    assert abs(d.probs.sum(axis=1)[0] - 0.5) < 1e-12
    assert abs(d.probs.sum(axis=0)[0] - 0.5) < 1e-12


def test_geometric_correlator_identity():
    for _ in range(200):
        st = random_two_qubit()
        d = C.joint_distribution(
            st,
            C.MeasurementSetting(RNG.uniform(0, 2 * np.pi)),
            C.MeasurementSetting(RNG.uniform(0, 2 * np.pi), C.BOB),
        )
        assert abs(C.correlator(d) - C.geometric_correlator(d)) < 1e-12


def test_joint_distribution_matches_projector_oracle():
    # measured worst error 5.6e-16 on 2000 draws; the bound keeps an 18x margin
    rng = np.random.default_rng(3)
    for state in property_states(rng, 200):
        a, b = rng.uniform(0.0, 2.0 * np.pi, 2)
        d = C.joint_distribution(state, C.MeasurementSetting(a), C.MeasurementSetting(b, C.BOB))
        assert np.max(np.abs(d.probs - projector_distribution(state, a, b))) < 1e-14


def test_joint_distribution_needs_two_qubits():
    st = BipartiteState(np.eye(3) / np.sqrt(3.0))
    with pytest.raises(DimensionMismatchError):
        C.joint_distribution(st, C.MeasurementSetting(0.0), C.MeasurementSetting(0.0, C.BOB))


# -- CHSH ----------------------------------------------------------------


def test_chsh_singlet_tsirelson_settings():
    res = C.chsh_S(C.singlet(), *A_OPT)
    assert abs(res.s_value - (-C.TSIRELSON_BOUND)) < 1e-12
    assert res.regime == "quantum"


def test_chsh_product_state_classical():
    res = C.chsh_S(C.product_state(), *A_OPT)
    assert abs(res.s_value) <= C.CLASSICAL_BOUND + 1e-12
    assert res.regime == "classical"


def test_chsh_correlators_match_observable_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        st = random_two_qubit(rng)
        angles = rng.uniform(0.0, 2.0 * np.pi, 4)
        res = C.chsh_S(st, *angles)
        a, ap, b, bp = angles
        for key, (x, y) in {"ab": (a, b), "ab'": (a, bp), "a'b": (ap, b), "a'b'": (ap, bp)}.items():
            assert abs(res.correlators[key] - observable_correlator(st, x, y)) < 1e-12


def test_chsh_rejects_non_finite_setting():
    with pytest.raises(ValueError):
        C.chsh_S(C.singlet(), 0.0, np.nan, 0.0, 0.0)


def test_chsh_correlator_bookkeeping():
    res = C.chsh_S(C.singlet(), *A_OPT)
    s = res.correlators["ab"] - res.correlators["ab'"] + res.correlators["a'b"] + res.correlators["a'b'"]
    assert abs(s - res.s_value) < 1e-12


def test_loop_excess():
    assert C.loop_excess(C.singlet(), *A_OPT) == pytest.approx(
        C.TSIRELSON_BOUND - 2.0, abs=1e-12
    )
    assert C.loop_excess(C.product_state(), *A_OPT) == 0.0


def test_classical_polytope():
    res = C.classical_polytope_max()
    assert res.max_value == 2.0
    assert res.min_value == -2.0
    assert len(res.maximizers) == 8
    for aa, aap, bb, bbp in res.maximizers:
        assert aa * bb - aa * bbp + aap * bb + aap * bbp == 2


def test_schmidt_pair_weight_validation():
    with pytest.raises(ValueError):
        C.schmidt_pair(1.5)


# -- scans ---------------------------------------------------------------


def test_tsirelson_scan_singlet():
    table = C.tsirelson_scan(C.singlet(), 24)
    assert abs(table.meta["max_abs_S"] - C.TSIRELSON_BOUND) < 1e-6
    assert table.meta["regime"] == "quantum"


def test_tsirelson_scan_product_capped_at_two():
    table = C.tsirelson_scan(C.product_state(), 16)
    assert table.meta["max_abs_S"] <= 2.0 + 1e-9


def test_tsirelson_scan_partial_entanglement_oracle():
    p = 0.9
    table = C.tsirelson_scan(C.schmidt_pair(p), 24)
    oracle = 2.0 * np.sqrt(1.0 + 4.0 * p * (1.0 - p))
    assert abs(table.meta["max_abs_S"] - oracle) < 1e-6


def test_tsirelson_scan_never_super_quantum():
    for p in (0.5, 0.7, 1.0):
        table = C.tsirelson_scan(C.schmidt_pair(p), 12)
        assert table.meta["max_abs_S"] <= C.TSIRELSON_BOUND + 1e-9


def test_tsirelson_scan_grid_floor():
    with pytest.raises(ValueError):
        C.tsirelson_scan(C.singlet(), 4)


def test_scan_table_columns():
    table = C.tsirelson_scan(C.singlet(), 12)
    assert table.columns == ("a", "a_prime", "b", "b_prime", "S", "abs_S", "refined")
    assert len(table.rows) == 2
    # refined row at least as good as the grid row
    assert table.rows[1][5] >= table.rows[0][5] - 1e-12


@pytest.mark.parametrize("index", range(6))
def test_tsirelson_scan_matches_horodecki_closed_form(index):
    state = scan_states()[index]
    table = C.tsirelson_scan(state, 24)
    assert abs(table.meta["max_abs_S"] - horodecki_max(state)) < 1e-12


@pytest.mark.parametrize("n", (8, 9, 24, 48))
def test_tsirelson_scan_closed_form_property(n):
    # measured worst |max_abs_S - horodecki_max| 1.6e-15 over these sizes on
    # 200 states each; the bound keeps a 6x margin
    tau = 2.0 * np.pi
    for state in property_states(np.random.default_rng(n), 200):
        table = C.tsirelson_scan(state, n)
        grid, refined = table.rows
        assert abs(table.meta["max_abs_S"] - horodecki_max(state)) < 1e-14
        assert refined[4] == table.meta["max_abs_S"] >= grid[5] - 1e-14
        assert all(0.0 <= x < tau for x in refined[:4])
        # phi rule: b + b' = 2 phi modulo 2 pi, phi the grid's (b + b') / 2
        assert abs(np.cos(refined[2] + refined[3] - grid[2] - grid[3]) - 1.0) < 1e-12


# Odd sizes matter: on an even grid b -> b + pi and a <-> a' map every S to
# -S, so a scan that ignored the sign of S or the order of (a, a') would pass.
@pytest.mark.parametrize("n", (8, 9, 12, 13, 24))
def test_grid_optimum_matches_brute_force_tie_rule(n):
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    for state in scan_states():
        idx = brute_force_grid_argmax(state, n)
        grid_row = C.tsirelson_scan(state, n).rows[0]
        assert grid_row[:4] == [angles[i] for i in idx]


def test_tsirelson_scan_memory_is_quadratic():
    tracemalloc.start()
    try:
        C.tsirelson_scan(C.schmidt_pair(0.7), 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the N^4 tensor alone would take 2 GiB at N = 128
    assert peak < 5 * 2**20


def test_tsirelson_scan_needs_two_qubits():
    with pytest.raises(DimensionMismatchError):
        C.tsirelson_scan(BipartiteState(np.eye(3) / np.sqrt(3.0)), 8)
