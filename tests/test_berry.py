"""Geometric connection, curvature, holonomy, and the Stokes check."""
import numpy as np
import pytest

from dualgeo import berry as B


def solid_angle_phase(theta_c):
    """Holonomy of the spin-1/2 latitude loop: minus half the solid angle."""
    return -np.pi * (1.0 - np.cos(theta_c))


def loop_phase_reference(family, loop):
    """Per-point reference: one state call and one overlap per loop point."""
    states = [family.state(p) for p in loop.points]
    total = 0.0
    for k in range(len(states) - 1):
        total -= np.angle(np.vdot(states[k], states[k + 1]))
    return total


def surface_flux_reference(family, mesh):
    """Per-point reference: plaquette phases summed cell by cell."""
    nu1, nv1, _ = mesh.grid.shape
    states = [[family.state(mesh.grid[i, j]) for j in range(nv1)] for i in range(nu1)]
    total = 0.0
    for i in range(nu1 - 1):
        for j in range(nv1 - 1):
            prod = (
                np.vdot(states[i][j], states[i + 1][j])
                * np.vdot(states[i + 1][j], states[i + 1][j + 1])
                * np.vdot(states[i + 1][j + 1], states[i][j + 1])
                * np.vdot(states[i][j + 1], states[i][j])
            )
            total -= np.angle(prod)
    return total


def two_level(k):
    """(cos k u, sin k u): neighbours a quarter period apart are orthogonal."""
    return B.StateFamily(2, lambda p: np.array([np.cos(k * p[0]), np.sin(k * p[0])], dtype=complex))


# -- state families -----------------------------------------------------


def test_spin_half_normalized():
    fam = B.spin_half()
    v = fam.state([0.7, 1.9])
    assert abs(np.vdot(v, v).real - 1.0) < 1e-14


def test_state_family_rejects_unnormalized():
    fam = B.StateFamily(1, lambda p: np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        fam.state([0.0])


def test_batched_states_match_single_points():
    fam = B.spin_half()
    pts = np.random.default_rng(3).uniform(0.0, 3.0, size=(4, 5, 2))
    batch = fam.states(pts)
    assert batch.shape == (4, 5, 2)
    for idx in np.ndindex(4, 5):
        assert np.array_equal(batch[idx], fam.state(pts[idx]))


def test_states_reject_unnormalized_batch_member():
    # normalized everywhere except at u = 0.5
    fam = B.StateFamily(
        1, lambda p: np.array([np.ones_like(p[0]), 1j * (p[0] == 0.5)], dtype=complex)
    )
    fam.states(np.array([[0.1], [0.2]]))
    with pytest.raises(ValueError):
        fam.states(np.array([[0.1], [0.5], [0.2]]))


def test_states_reject_evaluator_ignoring_batch():
    fam = B.StateFamily(1, lambda p: np.array([1.0, 0.0]))
    assert np.array_equal(fam.state([0.3]), [1.0, 0.0])
    with pytest.raises(ValueError):
        fam.states(np.zeros((5, 1)))
    with pytest.raises(ValueError):
        fam.states(np.zeros((5, 2)))  # wrong number of parameters


# -- connection / curvature oracles -------------------------------------


def test_spin_half_connection_components():
    fam = B.spin_half()
    for theta in (0.4, 1.2, 2.3):
        a = B.berry_connection(fam, [theta, 0.8])
        assert abs(a[0]) < 1e-8  # A_theta = 0
        assert abs(a[1] - (-np.sin(theta / 2.0) ** 2)) < 1e-8  # A_phi


def test_spin_half_curvature():
    fam = B.spin_half()
    for theta in (0.5, 1.5, 2.6):
        f = B.berry_curvature(fam, [theta, 1.0])
        assert abs(f[0, 1] - (-0.5 * np.sin(theta))) < 1e-6
        assert abs(f[1, 0] + f[0, 1]) < 1e-15  # antisymmetry


def test_connection_gauge_covariance_curvature_invariance():
    fam = B.spin_half()
    gauged = B.with_gauge(fam, lambda p: 0.3 * p[0] + 0.7 * p[1])
    pt = [1.1, 0.4]
    a0 = B.berry_connection(fam, pt)
    a1 = B.berry_connection(gauged, pt)
    # A -> A - grad alpha
    assert np.max(np.abs(a1 - (a0 - np.array([0.3, 0.7])))) < 1e-6
    f0 = B.berry_curvature(fam, pt)
    f1 = B.berry_curvature(gauged, pt)
    assert np.max(np.abs(f0 - f1)) < 1e-6


def test_degenerate_state_detected():
    # a family oscillating faster than the stencil resolves
    k = 2.0e5
    fam = B.StateFamily(1, lambda p: np.array([np.cos(k * p[0]), np.sin(k * p[0])], dtype=complex))
    with pytest.raises(B.DegenerateStateError):
        B.berry_connection(fam, [0.0])


# -- loops --------------------------------------------------------------


def test_loop_requires_closure_and_segments():
    pts = np.zeros((10, 2))
    pts[-1] = [0.1, 0.0]
    with pytest.raises(ValueError):
        B.LoopPath(pts)
    with pytest.raises(ValueError):
        B.LoopPath(np.zeros((5, 2)))


def test_latitude_loop_phase_oracle():
    fam = B.spin_half()
    for theta_c in (np.pi / 6, np.pi / 3, np.pi / 2):
        loop = B.latitude_loop(theta_c, 2000)
        gamma = B.berry_phase_loop(fam, loop)
        assert abs(gamma - solid_angle_phase(theta_c)) < 1e-4


def test_unwrapped_phase_beyond_principal_branch():
    fam = B.spin_half()
    theta_c = 2.0 * np.pi / 3.0
    loop = B.latitude_loop(theta_c, 2000)
    gamma = B.berry_phase_loop(fam, loop, unwrapped=True)
    assert abs(gamma - (-1.5 * np.pi)) < 1e-4
    wrapped = B.berry_phase_loop(fam, loop)
    assert abs(wrapped - B.principal_phase(gamma)) < 1e-12


def test_reversed_loop_flips_phase():
    fam = B.spin_half()
    loop = B.latitude_loop(1.0, 512)
    g1 = B.berry_phase_loop(fam, loop, unwrapped=True)
    g2 = B.berry_phase_loop(fam, loop.reversed(), unwrapped=True)
    assert abs(g1 + g2) < 1e-12


def test_constant_loop_zero_phase():
    fam = B.spin_half()
    loop = B.constant_loop([0.9, 0.2], 16)
    assert abs(B.berry_phase_loop(fam, loop)) < 1e-14


def test_loop_phase_gauge_invariant():
    fam = B.spin_half()
    # single-valued gauge: periodic in phi so it does not wind around the loop
    gauged = B.with_gauge(fam, lambda p: 1.3 * np.sin(p[0]) + 0.4 * np.sin(p[1]))
    loop = B.latitude_loop(0.8, 512)
    g1 = B.berry_phase_loop(fam, loop, unwrapped=True)
    g2 = B.berry_phase_loop(gauged, loop, unwrapped=True)
    assert abs(g1 - g2) < 1e-10


def test_winding_count():
    fam = B.spin_half()
    assert B.winding_count(fam, B.latitude_loop(2.0 * np.pi / 3.0, 2000)) == -1
    assert B.winding_count(fam, B.latitude_loop(0.5, 2000)) == 0


@pytest.mark.parametrize("theta_c, segments", [(0.4, 16), (np.pi / 2, 256), (2.5, 2000)])
def test_loop_phase_matches_per_point_reference(theta_c, segments):
    loop = B.latitude_loop(theta_c, segments)
    for fam in (B.spin_half(), B.with_gauge(B.spin_half(), lambda p: np.cos(p[0]) * np.sin(2.0 * p[1]))):
        ref = loop_phase_reference(fam, loop)
        assert abs(B.berry_phase_loop(fam, loop, unwrapped=True) - ref) < 1e-12


def test_loop_vanishing_overlap_detected():
    h = np.pi / 2.0
    loop = B.LoopPath(np.array([[0.0, 0.0], [h, 0.0]] * 4 + [[0.0, 0.0]]))
    with pytest.raises(B.DegenerateStateError):
        B.berry_phase_loop(two_level(1.0), loop)


def test_loop_rejects_unnormalized_state():
    fam = B.StateFamily(2, lambda p: np.array([np.ones_like(p[0]), np.zeros_like(p[1]) + 0.1]))
    with pytest.raises(ValueError):
        B.berry_phase_loop(fam, B.latitude_loop(1.0, 16))


# -- surfaces -----------------------------------------------------------


def test_polar_cap_mesh_shape_and_boundary():
    mesh = B.polar_cap(1.0, 16, 32)
    assert mesh.grid.shape == (17, 33, 2)
    boundary = mesh.boundary_loop()
    assert np.allclose(boundary.points[:, 0], 1.0)


def test_surface_flux_matches_loop_phase():
    fam = B.spin_half()
    for theta_c in (np.pi / 3, np.pi / 2):
        flux = B.berry_phase_surface(fam, B.polar_cap(theta_c, 64, 128))
        loop = B.berry_phase_loop(fam, B.latitude_loop(theta_c, 2000), unwrapped=True)
        assert abs(flux - loop) < 1e-3


def test_full_sphere_flux_is_chern_winding():
    fam = B.spin_half()
    upper = B.berry_phase_surface(fam, B.polar_cap(np.pi / 2, 64, 128))
    lower = B.berry_phase_surface(fam, B.polar_cap(np.pi, 64, 128, theta_start=np.pi / 2))
    assert abs(upper + lower - (-2.0 * np.pi)) < 1e-8


def test_mesh_requires_identified_v_edges():
    grid = np.zeros((9, 9, 2))
    grid[:, :, 1] = np.linspace(0.0, 1.0, 9)[None, :]
    with pytest.raises(ValueError):
        B.SurfaceMesh(grid)


def test_principal_phase_branch():
    assert abs(B.principal_phase(3.0 * np.pi) - np.pi) < 1e-12
    assert abs(B.principal_phase(-np.pi) - np.pi) < 1e-12
    assert abs(B.principal_phase(0.3) - 0.3) < 1e-15


@pytest.mark.parametrize("theta_c, nu, nv", [(0.7, 4, 8), (np.pi / 2, 16, 32), (2.9, 32, 64)])
def test_surface_flux_matches_per_point_reference_and_is_gauge_invariant(theta_c, nu, nv):
    mesh = B.polar_cap(theta_c, nu, nv)
    fam = B.spin_half()
    gauged = B.with_gauge(fam, lambda p: 1.3 * np.sin(p[0]) + 0.4 * np.sin(p[1]))
    flux = B.berry_phase_surface(fam, mesh)
    assert abs(flux - surface_flux_reference(fam, mesh)) < 1e-12
    assert abs(B.berry_phase_surface(gauged, mesh) - surface_flux_reference(gauged, mesh)) < 1e-12
    assert abs(B.berry_phase_surface(gauged, mesh) - flux) < 1e-10


def test_surface_vanishing_overlap_detected():
    grid = np.zeros((2, 9, 2))
    grid[1, :, 0] = np.pi / 2.0
    grid[:, :, 1] = np.linspace(0.0, 2.0 * np.pi, 9)[None, :]
    grid[:, -1, :] = grid[:, 0, :]
    with pytest.raises(B.DegenerateStateError):
        B.berry_phase_surface(two_level(1.0), B.SurfaceMesh(grid))
