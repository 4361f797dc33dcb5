"""Joint distributions, correlators, CHSH, and the Tsirelson scan."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def row_scan_best(e):
    """Oracle: best[a, a'], the largest |S| over (b, b'), by O(N^3) row
    scans: for each a, the extremes of the full rows e[a] + e[a'] and
    e[a'] - e[a] at every a'."""
    n = e.shape[0]
    best = np.empty((n, n))
    for ia in range(n):
        plus = e + e[ia]  # [a', b] -> E[a,b] + E[a',b]
        minus = e - e[ia]  # [a', b'] -> E[a',b'] - E[a,b']
        np.maximum(
            plus.max(axis=1) + minus.max(axis=1),
            -(plus.min(axis=1) + minus.min(axis=1)),
            out=best[ia],
        )
    return best


def row_scan_grid(e, best):
    """Oracle: the grid optimum from row_scan_best's best, with the
    library's tie rule and (b, b') step."""
    n = e.shape[0]
    threshold = best.max() - C._TIE_TOL
    ia, iap = divmod(int(np.argmax(best >= threshold)), n)
    s_block = np.abs((e[ia] + e[iap])[:, None] + (e[iap] - e[ia])[None, :])
    ib, ibp = divmod(int(np.argmax(s_block >= threshold)), n)
    return ia, iap, ib, ibp


def assert_grid_row_matches_row_scan(state, n):
    """On the grid tsirelson_scan builds: its grid row, byte for byte,
    against the row at row_scan_grid's index quadruple, and _pair_best
    against row_scan_best, bit for bit where neither row's coefficient is
    within 1e-9 of 0 and within 1e-15 where one is rounding noise (4.4e-16
    measured)."""
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    tu = u @ C.correlation_block(state)
    e = tu @ u.T
    best, oracle = C._pair_best(e, tu), row_scan_best(e)
    coef = np.minimum(
        np.linalg.norm(tu[:, None] + tu[None, :], axis=-1),
        np.linalg.norm(tu[:, None] - tu[None, :], axis=-1),
    )
    resolved = coef > 1e-9
    assert np.array_equal(best[resolved], oracle[resolved])
    assert np.max(np.abs(best - oracle)) <= 1e-15
    ia, iap, ib, ibp = row_scan_grid(e, oracle)
    s = e[ia, ib] - e[ia, ibp] + e[iap, ib] + e[iap, ibp]
    expected = [angles[ia], angles[iap], angles[ib], angles[ibp], s, abs(s), 0.0]
    grid_row = C.tsirelson_scan(state, n).rows[0]
    assert np.array(grid_row).tobytes() == np.array(expected).tobytes()


# T = 0: both Bloch vectors along y
ZERO_T_STATE = C.product_state([1.0, 1j], [1.0, 1j])
unit = st.floats(-1.0, 1.0)


@st.composite
def oracle_states(draw):
    """Random, Schmidt (weights 0 and 1 among them), singlet, product and
    T = 0 states: rank-1 and zero T make rows of rounding noise."""
    kind = draw(st.sampled_from(("random", "schmidt", "singlet", "product", "zero")))
    if kind == "random":
        amps = np.array(draw(st.lists(unit, min_size=8, max_size=8)))
        c = (amps[:4] + 1j * amps[4:]).reshape(2, 2)
        if np.linalg.norm(c) < 1e-3:
            c[0, 0] = 1.0
        return BipartiteState(c / np.linalg.norm(c))
    if kind == "schmidt":
        return C.schmidt_pair(draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)))
    if kind == "product":
        a, b = (np.array(draw(st.lists(unit, min_size=4, max_size=4))) for _ in range(2))
        a, b = a[:2] + 1j * a[2:], b[:2] + 1j * b[2:]
        if min(np.linalg.norm(a), np.linalg.norm(b)) < 1e-3:
            return C.product_state()
        return C.product_state(a, b)
    return C.singlet() if kind == "singlet" else ZERO_T_STATE


@given(oracle_states(), st.integers(8, 160))
def test_grid_search_matches_row_scan_oracle(state, n):
    assert_grid_row_matches_row_scan(state, n)


def test_grid_search_matches_row_scan_oracle_at_256():
    assert_grid_row_matches_row_scan(random_two_qubit(np.random.default_rng(256)), 256)


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


def test_tsirelson_scan_peak_memory_at_largest_grid():
    # two N x N arrays of 8 N^2 bytes each at any time: the grid e beside
    # best during the pair search, then beside the |S| block of the (b, b')
    # step, made absolute in place once best is released; with the boolean
    # tie mask (N^2 bytes) the peak is 2.13 x 8 N^2 (17 MiB at N = 1024,
    # against 4.01 x while best, the block and its absolute value coexisted).
    # The search's blocks of index pairs take 0.97 MiB beside best.  The bound
    # keeps a 29 % margin
    n = 1024
    tracemalloc.start()
    try:
        C.tsirelson_scan(C.schmidt_pair(0.3), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * 8 * n * n


def test_tsirelson_scan_needs_two_qubits():
    with pytest.raises(DimensionMismatchError):
        C.tsirelson_scan(BipartiteState(np.eye(3) / np.sqrt(3.0)), 8)
