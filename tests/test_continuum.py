"""Membrane finite-difference solver and the string-length model."""
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded
from scipy.special import ellipe

from dualgeo import continuum as K
from dualgeo.errors import NonConvergenceError


# -- membrane -----------------------------------------------------------


def test_membrane_problem_validation():
    with pytest.raises(ValueError):
        K.MembraneProblem(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        K.MembraneProblem(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        K.MembraneProblem(1.0, 1.0, 1.0, 8)


def test_membrane_closed_form_values():
    prob = K.MembraneProblem(2.0, 3.0, 1.5)
    assert abs(K.membrane_closed_form(prob, 1.5)) < 1e-15
    assert abs(K.membrane_closed_form(prob, 0.0) - 3.0 * (-(1.5**2)) / 8.0) < 1e-12
    with pytest.raises(ValueError):
        K.membrane_closed_form(prob, 2.0)


def test_membrane_solve_matches_parabola():
    # second-order stencils hold the parabola exactly, so only roundoff is
    # left: measured at most 3 ulps of max |w| (6.7e-16 relative, at 10^5
    # nodes); the bound allows four times that.  The band-matrix solve this
    # replaced missed by 9.2e-8 relative at 10^5 nodes.
    for tension, pressure, radius in [(1.0, 1.0, 1.0), (0.7, 1.3, 2.9)]:
        for nodes in (16, 512, 100_000):
            prob = K.MembraneProblem(tension, pressure, radius, nodes)
            scale = abs(K.membrane_closed_form(prob, 0.0))
            assert K.membrane_max_error(prob) <= 12 * np.finfo(float).eps * scale, nodes


def banded_membrane(prob, profile):
    """Oracle: the conservative stencil as a tridiagonal matrix, solved by
    LU (scipy.linalg.solve_banded); row 0 is the even extension at r = 0."""
    n = prob.radial_nodes
    h = prob.radius / n
    r = np.linspace(0.0, prob.radius, n + 1)
    ab = np.zeros((3, n))
    ab[1, 0] = -4.0 / h**2
    ab[0, 1] = 4.0 / h**2
    ri = r[1:n]
    rp, rm, scale = ri + 0.5 * h, ri - 0.5 * h, ri * h**2
    ab[2, : n - 1] = rm / scale
    ab[1, 1:] = -(rp + rm) / scale
    ab[0, 2:] = rp[:-1] / scale[:-1]
    load = np.array([profile(x) for x in r[:n]]) / prob.tension
    return np.append(solve_banded((1, 1), ab, load), 0.0)


@pytest.mark.parametrize(
    "profile",
    [lambda r: 1.0 + r**2, lambda r: np.cos(3.0 * r), lambda r: np.exp(-(((r - 0.6) / 0.1) ** 2))],
    ids=["quartic", "cosine", "ring"],
)
@pytest.mark.parametrize("nodes", [16, 512, 4096])
def test_membrane_solve_matches_band_matrix_under_radial_load(profile, nodes):
    # the LU solve's roundoff grows as n^2 eps: measured differences reach
    # 0.068 n^2 eps of max |w| at T = 0.3, R = 2.5 (0.037 at 16 nodes); the
    # bound allows 0.25 n^2 eps
    prob = K.MembraneProblem(0.3, 1.0, 2.5, nodes)
    w = K.membrane_solve(prob, pressure_profile=profile).deflections
    ref = banded_membrane(prob, profile)
    assert np.max(np.abs(w - ref)) <= 0.25 * nodes**2 * np.finfo(float).eps * np.max(np.abs(ref))


def test_membrane_solve_scaling():
    # deflection scales linearly with p/T
    p1 = K.membrane_solve(K.MembraneProblem(1.0, 1.0, 1.0, 64))
    p2 = K.membrane_solve(K.MembraneProblem(2.0, 4.0, 1.0, 64))
    assert np.max(np.abs(p2.deflections - 2.0 * p1.deflections)) < 1e-12


def test_membrane_clamped_edge_and_sign():
    field = K.membrane_solve(K.MembraneProblem(1.0, 1.0, 1.0, 64))
    assert field.deflections[-1] == 0.0
    assert np.all(field.deflections[:-1] < 0.0)  # downward under positive load


def test_membrane_regularity_at_center():
    # w'(0) = 0: first interior node stays close to the center value
    field = K.membrane_solve(K.MembraneProblem(1.0, 1.0, 1.0, 256))
    h = field.radii[1] - field.radii[0]
    slope = (field.deflections[1] - field.deflections[0]) / h
    assert abs(slope) < 1e-2


def test_membrane_convergence_order():
    orders = K.membrane_convergence_order(K.MembraneProblem(1.0, 1.0, 1.0))
    assert all(o >= 1.9 for o in orders)


# -- string -------------------------------------------------------------


def test_string_model_validation():
    with pytest.raises(ValueError):
        K.StringModel(-1.0, (1.0,))
    with pytest.raises(ValueError):
        K.StringModel(1.0, (1.0, -2.0))
    with pytest.raises(ValueError):
        K.StringModel(1.0, ())


def test_string_total_frequency_sums_levels():
    m = K.StringModel(1.0, (0.5, 1.5, 2.0))
    assert m.total_frequency == 4.0
    assert abs(K.string_profile(m, 0.3) - np.sin(4.0 * 0.3)) < 1e-15


def test_string_arc_length_elliptic_oracle():
    m = K.StringModel(1.0, (1.0,))
    oracle = np.sqrt(2.0) * ellipe(0.5)
    assert abs(K.string_arc_length_exact(m, np.pi / 2.0) - oracle) < 1e-10


def quad_arc_length(amplitude, fs, x):
    """Oracle: adaptive quadrature of the speed sqrt(1 + (A f_s cos(f_s u))^2)
    over one quarter period, times the whole quarters in [0, x], plus the rest."""
    def speed(u):
        return np.sqrt(1.0 + (amplitude * fs * np.cos(fs * u)) ** 2)

    quarter = np.pi / (2.0 * fs)
    n = np.floor(x / quarter)
    whole = quad(speed, 0.0, quarter, epsabs=0.0, epsrel=1e-13)[0]
    return n * whole + quad(speed, n * quarter, x, epsabs=0.0, epsrel=1e-13)[0]


@pytest.mark.parametrize(
    "amplitude, levels, x",
    [(1.0, (1.0,), 1000.0), (1.0, (100.0,), 100.0), (0.7, (2.0,), 1.3), (2.0, (1.5, 2.0), 7.7), (1e-3, (1.0,), 5.0)],
)
def test_string_arc_length_matches_quadrature(amplitude, levels, x):
    # the first two exited 3 while the length was itself a quadrature; the
    # bound is the oracle's requested tolerance (measured error <= 4e-16)
    exact = K.string_arc_length_exact(K.StringModel(amplitude, levels), x)
    assert abs(exact - quad_arc_length(amplitude, sum(levels), x)) <= 1e-13 * exact


def test_string_arc_length_exceeds_chord():
    m = K.StringModel(0.7, (2.0,))
    x = 1.3
    assert K.string_arc_length_exact(m, x) >= x


def test_string_zero_amplitude_arc_is_chord():
    m = K.StringModel(0.0, (1.0,))
    assert abs(K.string_arc_length_exact(m, 2.0) - 2.0) < 1e-12


@pytest.mark.parametrize("fs, x", [(1e-300, 1.0), (1e-310, 1.0), (1e-200, 1e-200)])
def test_string_arc_length_tiny_phase_is_chord(fs, x):
    # f_s x is tiny or underflows to 0: the arc length is the chord x
    assert K.string_arc_length_exact(K.StringModel(1.0, (fs,)), x) == x


def test_string_length_report_fields():
    m = K.StringModel(1.0, (1.0,))
    rep = K.string_length_report(m, np.pi / 2.0)
    assert abs(rep.approximate - 1.0) < 1e-12
    # the approximation is the integral of f_s cos(f_s u) over [0, x]
    assert abs(quad(lambda u: np.cos(u), 0.0, np.pi / 2.0)[0] - rep.approximate) < 1e-10
    assert rep.discrepancy == abs(rep.approximate - rep.exact)
    assert rep.relative_discrepancy > 0.3  # the approximation error is large, and reported


def test_string_inversion_exact():
    m = K.StringModel(1.0, (1.0,))
    for x in np.linspace(1e-3, np.pi / 2.0, 64):
        l = K.string_effective_length(m, x)
        assert abs(np.arcsin(l) / m.total_frequency - x) < 1e-12


def test_wavelength_quantization():
    m = K.StringModel(1.0, (2.0 * np.pi,))  # wavelength 1
    q = K.wavelength_quantization_check(m, 3.0)
    assert abs(q.wavelength - 1.0) < 1e-15
    assert q.is_integer
    assert abs(q.waves_on_domain - 3.0) < 1e-12
    assert abs(q.wavelength_over_domain - 1.0 / 3.0) < 1e-15
    q2 = K.wavelength_quantization_check(m, 3.4)
    assert not q2.is_integer


def test_positive_endpoint_required():
    m = K.StringModel(1.0, (1.0,))
    with pytest.raises(ValueError):
        K.string_arc_length_exact(m, 0.0)
    with pytest.raises(ValueError):
        K.wavelength_quantization_check(m, -1.0)


def test_superposed_wave_amplitude_identity():
    # A (sin(kx - wt + phi) - sin(kx - wt)) with A = 2 B cos(phi / 2) equals
    # the direct difference of the two phase-shifted waves scaled by A
    b, k, omega, phi = 0.8, 2.0, 1.5, 0.9
    for x, t in ((0.3, 0.1), (1.7, 2.2)):
        val = K.superposed_wave(b, k, omega, phi, x, t)
        a = 2.0 * b * np.cos(phi / 2.0)
        direct = a * (np.sin(k * x - omega * t + phi) - np.sin(k * x - omega * t))
        assert abs(val - direct) < 1e-14
