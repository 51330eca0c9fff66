import logging

import numpy as np
import pytest
from scipy import linalg

from conftest import small_trap
from ionstring import chain
from ionstring.constants import HBAR, mass_from_amu, omega_from_hz, wavevector
from ionstring.errors import ConvergenceError, ZigzagInstabilityError


def test_single_ion_sits_at_center():
    trap = small_trap(1)
    assert chain.equilibrium_positions(trap).tolist() == [0.0]


def test_two_ion_analytic_positions():
    trap = small_trap(2)
    z = chain.equilibrium_positions(trap)
    expected = 0.5 ** (2.0 / 3.0) * trap.length_scale
    np.testing.assert_allclose(z, [-expected, expected], rtol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 10, 20])
def test_equilibrium_is_symmetric_sorted_and_stationary(n):
    trap = small_trap(n)
    z = chain.equilibrium_positions(trap)
    assert np.all(np.diff(z) > 0)
    np.testing.assert_allclose(z, -z[::-1], atol=1e-20)
    # residual dimensionless force below 1e-9 of the characteristic force
    u = z / trap.length_scale
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    grad = u - np.sum(np.sign(d) / d**2, axis=1)
    assert np.max(np.abs(grad)) < 1e-9


def test_51_ion_span_matches_measured_chain(default_trap, default_positions):
    span = chain.chain_span(default_positions)
    assert abs(span - 246e-6) < 0.03 * 246e-6


def test_span_scales_with_axial_confinement(default_positions):
    softer = small_trap(51, omega_z_hz=112e3)
    span_112 = chain.chain_span(chain.equilibrium_positions(softer))
    span_127 = chain.chain_span(default_positions)
    assert abs(span_112 - 269e-6) < 0.03 * 269e-6
    predicted = span_127 * (127.0 / 112.0) ** (2.0 / 3.0)
    assert abs(span_112 / predicted - 1.0) < 0.01


def test_solver_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(chain, "_MAX_ITER", 2)
    with pytest.raises(ConvergenceError):
        chain.equilibrium_positions(small_trap(30))


def test_axial_com_mode_any_n():
    trap = small_trap(7)
    spectrum = chain.normal_modes(trap, chain.equilibrium_positions(trap), chain.AXIAL)
    np.testing.assert_allclose(spectrum.frequencies[0], trap.omega_z, rtol=1e-12)
    np.testing.assert_allclose(
        spectrum.eigenvectors[:, 0], np.full(7, 1.0 / np.sqrt(7.0)), atol=1e-10
    )


def test_two_ion_stretch_mode():
    trap = small_trap(2)
    spectrum = chain.normal_modes(trap, chain.equilibrium_positions(trap), chain.AXIAL)
    np.testing.assert_allclose(
        spectrum.frequencies[1], np.sqrt(3.0) * trap.omega_z, rtol=1e-10
    )


@pytest.mark.parametrize("direction,attr", [(chain.RADIAL_X, "omega_x"), (chain.RADIAL_Y, "omega_y")])
def test_radial_com_is_highest_mode(direction, attr):
    trap = small_trap(6)
    spectrum = chain.normal_modes(trap, chain.equilibrium_positions(trap), direction)
    np.testing.assert_allclose(spectrum.frequencies[-1], getattr(trap, attr), rtol=1e-10)
    com = spectrum.eigenvectors[:, -1]
    np.testing.assert_allclose(com, np.full(6, 1.0 / np.sqrt(6.0)), atol=1e-9)


def test_eigenvector_orthonormality_and_hessian_trace(default_trap, default_positions):
    spectrum = chain.normal_modes(default_trap, default_positions, chain.AXIAL)
    b = spectrum.eigenvectors
    np.testing.assert_allclose(b.T @ b, np.eye(51), atol=1e-10)
    # basis independence: sum of squared frequencies = trace of Hessian
    u = default_positions / default_trap.length_scale
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    trace = np.sum(1.0 + 2.0 * np.sum(1.0 / np.abs(d) ** 3, axis=1))
    total = np.sum((spectrum.frequencies / default_trap.omega_z) ** 2)
    np.testing.assert_allclose(total, trace, rtol=1e-9)


def test_zigzag_instability_names_critical_frequency():
    trap = small_trap(10, omega_z_hz=500e3, omega_x_hz=550e3)
    z = chain.equilibrium_positions(trap)
    with pytest.raises(ZigzagInstabilityError) as err:
        chain.normal_modes(trap, z, chain.RADIAL_X)
    critical = float(str(err.value).split("exceed")[1].split("rad/s")[0])
    stable = chain.TrapParameters(
        omega_x=critical * 1.01,
        omega_y=trap.omega_y,
        omega_z=trap.omega_z,
        ion_mass=trap.ion_mass,
        ion_count=10,
    )
    spectrum = chain.normal_modes(stable, z, chain.RADIAL_X)
    assert spectrum.frequencies[0] > 0


def test_single_ion_lamb_dicke_value():
    trap = small_trap(1, omega_z_hz=2.93e6)
    spectrum = chain.normal_modes(trap, np.zeros(1), chain.AXIAL)
    spectrum = chain.lamb_dicke(spectrum, wavevector(729e-9))
    expected = wavevector(729e-9) * np.sqrt(
        HBAR / (2.0 * mass_from_amu(40.0) * omega_from_hz(2.93e6))
    )
    np.testing.assert_allclose(spectrum.lamb_dicke[0, 0], expected, rtol=1e-12)
    assert abs(expected - 0.0566) < 5e-4


def test_com_lamb_dicke_scales_as_inverse_sqrt_n():
    n = 9
    trap = small_trap(n)
    spectrum = chain.lamb_dicke(
        chain.normal_modes(trap, chain.equilibrium_positions(trap), chain.AXIAL),
        wavevector(729e-9),
    )
    single = chain.lamb_dicke(
        chain.normal_modes(small_trap(1), np.zeros(1), chain.AXIAL),
        wavevector(729e-9),
    )
    np.testing.assert_allclose(
        spectrum.lamb_dicke[:, 0],
        np.full(n, single.lamb_dicke[0, 0] / np.sqrt(n)),
        rtol=1e-10,
    )


def test_zero_projection_zero_eta():
    trap = small_trap(4)
    spectrum = chain.lamb_dicke(
        chain.normal_modes(trap, chain.equilibrium_positions(trap), chain.RADIAL_X),
        0.0,
    )
    assert np.all(spectrum.lamb_dicke == 0.0)


def test_eta_bounded_by_softest_mode(default_trap, default_positions):
    k = wavevector(729e-9)
    spectrum = chain.lamb_dicke(
        chain.normal_modes(default_trap, default_positions, chain.RADIAL_X), k
    )
    bound = abs(k) * np.sqrt(
        HBAR / (2.0 * default_trap.ion_mass * spectrum.frequencies.min())
    )
    assert np.max(np.abs(spectrum.lamb_dicke)) <= bound * (1.0 + 1e-12)


# ------------------------------------------------- full-size oracles


def _full_separations(u):
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return d


def _full_gradient(u):
    d = _full_separations(u)
    return u - np.sum(np.sign(d) / d**2, axis=1)


def _full_matrix(u, base, coupling):
    """base I + coupling (K - diag(K 1)), K_ij = 1 / |u_i - u_j|^3: the axial Hessian at (1, -2), radial at (a^2, 1)."""
    k = 1.0 / np.abs(_full_separations(u)) ** 3
    np.fill_diagonal(k, 0.0)
    return base * np.eye(u.size) + coupling * (k - np.diag(k.sum(axis=1)))


def _full_size_positions(n, tol=1e-13):
    """The solver before the mirror-half one: damped Newton on all N positions from a uniform seed."""
    if n == 1:
        return np.zeros(1)
    u = 2.018 / n**0.559 * (np.arange(n) - 0.5 * (n - 1))
    grad = _full_gradient(u)
    while np.max(np.abs(grad)) >= tol:
        step = np.linalg.solve(_full_matrix(u, 1.0, -2.0), -grad)
        alpha = 1.0
        for _ in range(60):
            trial = u + alpha * step
            if np.all(np.diff(trial) > 0) and np.max(np.abs(_full_gradient(trial))) < np.max(np.abs(grad)):
                break
            alpha *= 0.5
        else:
            raise ConvergenceError("line search stalled")
        u, grad = trial, _full_gradient(trial)
    return 0.5 * (u - u[::-1])


@pytest.mark.parametrize("n", [60, 61, 200, 1000])
def test_long_strings_are_ascending_mirror_exact_and_converged(n):
    trap = small_trap(n)
    z, record = chain.equilibrium_positions(trap, full_output=True)
    assert np.all(np.diff(z) > 0)
    assert np.array_equal(z, -z[::-1])
    assert record.acceptance == chain.ACCEPTANCE
    assert record.residual < chain.ACCEPTANCE and record.iterations > 0
    assert np.max(np.abs(_full_gradient(z / trap.length_scale))) < chain.ACCEPTANCE


@pytest.mark.parametrize("n", range(1, 52))
def test_short_strings_match_the_full_size_solver(n):
    trap = small_trap(n)
    u = chain.equilibrium_positions(trap) / trap.length_scale
    np.testing.assert_allclose(u, _full_size_positions(n), rtol=1e-12, atol=1e-12 * np.max(np.abs(u)))


def test_solver_range_is_stated():
    z, record = chain.equilibrium_positions(small_trap(chain.MAX_IONS), full_output=True)
    assert z.size == chain.MAX_IONS and record.residual < chain.ACCEPTANCE
    with pytest.raises(ValueError, match=f"{chain.MAX_IONS + 1} ions exceed"):
        chain.equilibrium_positions(small_trap(chain.MAX_IONS + 1))


def test_solver_logs_its_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="ionstring.chain"):
        _, record = chain.equilibrium_positions(small_trap(60), full_output=True)
    assert f"60 ions, {record}" in caplog.text


@pytest.mark.parametrize(
    "n, direction",
    [(1, chain.AXIAL), (2, chain.RADIAL_X), (7, chain.RADIAL_Y), (50, chain.RADIAL_X), (51, chain.RADIAL_X),
     (51, chain.AXIAL), (400, chain.AXIAL), (1000, chain.AXIAL)],
)
def test_split_modes_match_the_full_eigh_oracle(n, direction):
    trap = small_trap(n)
    z = chain.equilibrium_positions(trap)
    spectrum = chain.normal_modes(trap, z, direction)
    u = z / trap.length_scale
    if direction == chain.AXIAL:
        matrix = _full_matrix(u, 1.0, -2.0)
    else:
        omega_r = trap.omega_x if direction == chain.RADIAL_X else trap.omega_y
        matrix = _full_matrix(u, (omega_r / trap.omega_z) ** 2, 1.0)
    values, vectors = np.linalg.eigh(matrix)
    # relative to the largest eigenvalue: the full eigh is accurate to eps |H|, not to eps per eigenvalue
    np.testing.assert_allclose((spectrum.frequencies / trap.omega_z) ** 2, values, rtol=0, atol=1e-12 * values[-1])
    np.testing.assert_allclose(spectrum.eigenvectors, chain._fix_eigenvector_signs(vectors), rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [51, 400])
def test_sign_rule_is_the_same_under_two_lapack_drivers(n):
    trap = small_trap(n)
    matrix = _full_matrix(chain.equilibrium_positions(trap) / trap.length_scale, 1.0, -2.0)
    evd = chain._fix_eigenvector_signs(np.linalg.eigh(matrix)[1])
    evr = chain._fix_eigenvector_signs(linalg.eigh(matrix, driver="evr")[1])
    np.testing.assert_allclose(evd, evr, rtol=0, atol=1e-12)
