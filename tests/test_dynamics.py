import logging

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from ionstring import dynamics as dyn
from ionstring.coupling import CouplingMatrix
from ionstring.errors import DimensionCapError


def pair_coupling(j, n=2, field_b=0.0):
    mat = np.zeros((n, n))
    mat[0, 1] = mat[1, 0] = j
    return CouplingMatrix(j=mat, field_b=field_b)


def random_coupling(n, seed, field_b=0.0, scale=100.0):
    rng = np.random.default_rng(seed)
    j = rng.normal(scale=scale, size=(n, n))
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return CouplingMatrix(j=j, field_b=field_b)


def test_neel_states():
    np.testing.assert_array_equal(np.nonzero(dyn.neel_state(2, "odd_up"))[0], [0b01])
    np.testing.assert_array_equal(np.nonzero(dyn.neel_state(3, "even_up"))[0], [0b101])
    np.testing.assert_allclose(dyn.magnetization(dyn.neel_state(5, "odd_up")), [1, -1, 1, -1, 1])
    np.testing.assert_allclose(dyn.magnetization(dyn.neel_state(4, "even_up")), [-1, 1, -1, 1])


def test_all_up_magnetization():
    psi = np.zeros(8, dtype=complex)
    psi[0] = 1.0
    np.testing.assert_array_equal(dyn.magnetization(psi), [1.0, 1.0, 1.0])


def test_diagonal_hamiltonian_keeps_populations():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    spec = dyn.HamiltonianSpec(pair_coupling(0.0, n=3, field_b=250.0), dyn.ISING_TRANSVERSE)
    out = dyn.evolve(psi, spec, 0.37)
    np.testing.assert_allclose(np.abs(out) ** 2, np.abs(psi) ** 2, rtol=0, atol=1e-15)


def test_two_qubit_exchange_oracle():
    j = 120.0
    spec = dyn.HamiltonianSpec(pair_coupling(j), dyn.ISING_TRANSVERSE)
    psi = dyn.neel_state(2, "odd_up")
    for t in (1e-4, 7e-4, 2.5e-3):
        out = dyn.evolve(psi, spec, t)
        np.testing.assert_allclose(dyn.magnetization(out)[0], np.cos(2 * j * t), atol=1e-10)
    quarter = dyn.evolve(psi, spec, np.pi / (4 * j))
    assert abs(dyn.magnetization(quarter)[0]) < 1e-10


def test_semigroup_property():
    spec = dyn.HamiltonianSpec(random_coupling(6, seed=0), dyn.ISING_TRANSVERSE)
    psi = dyn.neel_state(6)
    once = dyn.evolve(psi, spec, 8e-3)
    twice = dyn.evolve(dyn.evolve(psi, spec, 4e-3), spec, 4e-3)
    np.testing.assert_allclose(twice, once, atol=1e-8)


def test_xy_conserves_total_magnetization():
    spec = dyn.HamiltonianSpec(random_coupling(7, seed=1), dyn.XY_EFFECTIVE)
    rng = np.random.default_rng(2)
    psi = rng.normal(size=128) + 1j * rng.normal(size=128)
    psi /= np.linalg.norm(psi)
    before = dyn.total_magnetization(psi)
    for t in (1e-3, 5e-3, 2e-2):
        after = dyn.total_magnetization(dyn.evolve(psi, spec, t))
        assert abs(after - before) < 1e-9


@pytest.mark.parametrize("model", [dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE])
def test_energy_conservation(model):
    spec = dyn.HamiltonianSpec(random_coupling(6, seed=4, field_b=300.0), model)
    psi = dyn.neel_state(6)
    e0 = dyn.energy_expectation(psi, spec)
    e1 = dyn.energy_expectation(dyn.evolve(psi, spec, 6e-3), spec)
    scale = max(1.0, abs(e0))
    assert abs(e1 - e0) / scale < 1e-9


def test_norm_preserved():
    spec = dyn.HamiltonianSpec(random_coupling(8, seed=5, field_b=1e4), dyn.ISING_TRANSVERSE)
    out = dyn.evolve(dyn.neel_state(8), spec, 3e-3)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_ising_converges_to_xy_with_growing_field():
    n = 6
    j = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            j[i, k] = j[k, i] = 100.0 / abs(i - k) ** 1.3
    jmax = np.abs(j).max()
    psi = dyn.neel_state(n)
    times = np.linspace(0.0, 3.0 / jmax, 10)[1:]
    xy = dyn.HamiltonianSpec(CouplingMatrix(j=j, field_b=0.0), dyn.XY_EFFECTIVE)
    mags_xy = np.array([dyn.magnetization(state) for state in dyn.evolve_grid(psi, xy, times)])

    discrepancies = []
    for multiple in (5.0, 20.0, 80.0):
        ising = dyn.HamiltonianSpec(
            CouplingMatrix(j=j, field_b=0.5 * multiple * jmax), dyn.ISING_TRANSVERSE
        )
        mags = np.array([dyn.magnetization(state) for state in dyn.evolve_grid(psi, ising, times)])
        discrepancies.append(np.max(np.abs(mags - mags_xy)))
    assert discrepancies[0] > discrepancies[1] > discrepancies[2]

    at_50 = dyn.HamiltonianSpec(
        CouplingMatrix(j=j, field_b=0.5 * 50.0 * jmax), dyn.ISING_TRANSVERSE
    )
    mags = np.array([dyn.magnetization(state) for state in dyn.evolve_grid(psi, at_50, times)])
    assert np.max(np.abs(mags - mags_xy)) < 0.05


def test_dimension_cap():
    spec = dyn.HamiltonianSpec(random_coupling(4, seed=0), dyn.ISING_TRANSVERSE)
    with pytest.raises(DimensionCapError, match="cap"):
        dyn.evolve(dyn.neel_state(4), spec, 1e-3, max_qubits=3)


def per_point_oracle(state, spec, times):
    """The propagation evolve_grid replaced: one exponential from t = 0 per time."""
    h = dyn.build_hamiltonian(spec)
    return np.array([state.copy() if t == 0 else expm_multiply(-1j * t * h, state) for t in times])


GRIDS = {
    "uniform": np.linspace(0.0, 3e-3, 11),
    "nonuniform": np.array([0.0, 1e-5, 2e-4, 2.1e-4, 9e-4, 9.5e-4, 3e-3]),
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("n", [6, 8, 10])
@pytest.mark.parametrize("model", [dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE])
def test_evolve_grid_matches_per_point_oracle(model, n, grid):
    # the quench workload's field: B = delta / 2 at a 3 kHz detuning
    spec = dyn.HamiltonianSpec(random_coupling(n, seed=n, field_b=np.pi * 3e3), model)
    psi = dyn.neel_state(n)
    times = GRIDS[grid]
    result = dyn.evolve_grid(psi, spec, times)
    assert result.states.shape == (len(times), 2**n)
    np.testing.assert_allclose(result.states, per_point_oracle(psi, spec, times), rtol=0, atol=1e-12)
    assert result.propagation_steps == len(times) - 1
    assert 0.0 <= result.max_norm_error < 1e-10


def test_evolve_grid_diagonal_hamiltonian_uses_exact_phases(monkeypatch):
    spec = dyn.HamiltonianSpec(pair_coupling(0.0, n=4, field_b=250.0), dyn.ISING_TRANSVERSE)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    times = np.array([0.0, 1e-3, 1.5e-3, 4e-3])
    diagonal = dyn.build_hamiltonian(spec).diagonal()

    def no_expm(*args, **kwargs):
        raise AssertionError("a diagonal H must not go through expm_multiply")

    monkeypatch.setattr(dyn, "expm_multiply", no_expm)
    result = dyn.evolve_grid(psi, spec, times)
    expected = np.array([np.exp(-1j * t * diagonal) * psi for t in times])
    np.testing.assert_allclose(result.states, expected, rtol=0, atol=1e-12)
    assert result.propagation_steps == 3


def test_evolve_grid_leading_zero_is_a_copy():
    spec = dyn.HamiltonianSpec(random_coupling(4, seed=2), dyn.ISING_TRANSVERSE)
    psi = dyn.neel_state(4)
    result = dyn.evolve_grid(psi, spec, [0.0, 1e-3])
    np.testing.assert_array_equal(result[0], psi)
    assert not np.shares_memory(result[0], psi)
    single = dyn.evolve(psi, spec, 0.0)
    assert single is not psi and not np.shares_memory(single, psi)
    np.testing.assert_array_equal(single, psi)


def test_evolve_grid_all_zero_times_builds_nothing(monkeypatch):
    spec = dyn.HamiltonianSpec(random_coupling(4, seed=2), dyn.ISING_TRANSVERSE)

    def no_build(spec):
        raise AssertionError("no propagation, so no Hamiltonian")

    monkeypatch.setattr(dyn, "build_hamiltonian", no_build)
    result = dyn.evolve_grid(dyn.neel_state(4), spec, [0.0, 0.0])
    assert result.propagation_steps == 0 and result.max_norm_error == 0.0


def test_evolve_grid_repeated_times():
    spec = dyn.HamiltonianSpec(random_coupling(5, seed=3, field_b=400.0), dyn.ISING_TRANSVERSE)
    psi = dyn.neel_state(5)
    times = [0.0, 1e-3, 1e-3, 2e-3, 2e-3]
    result = dyn.evolve_grid(psi, spec, times)
    np.testing.assert_array_equal(result[1], result[2])
    np.testing.assert_array_equal(result[3], result[4])
    assert result.propagation_steps == 2
    np.testing.assert_allclose(result.states, per_point_oracle(psi, spec, times), rtol=0, atol=1e-12)


@pytest.mark.parametrize("times", [[-1e-3], [0.0, -1e-4], [2e-3, 1e-3], [0.0, np.nan], [[1e-3]]])
def test_evolve_grid_rejects_bad_times(times):
    spec = dyn.HamiltonianSpec(random_coupling(3, seed=0), dyn.ISING_TRANSVERSE)
    with pytest.raises(ValueError, match="times"):
        dyn.evolve_grid(dyn.neel_state(3), spec, times)


def test_evolve_grid_cap_checked_before_build(monkeypatch):
    spec = dyn.HamiltonianSpec(random_coupling(4, seed=0), dyn.ISING_TRANSVERSE)

    def no_build(spec):
        raise AssertionError("the qubit cap must be checked before H is built")

    monkeypatch.setattr(dyn, "build_hamiltonian", no_build)
    with pytest.raises(DimensionCapError, match="cap"):
        dyn.evolve_grid(dyn.neel_state(4), spec, [0.0, 1e-3], max_qubits=3)


def test_evolve_grid_logs_its_diagnostics(caplog):
    spec = dyn.HamiltonianSpec(random_coupling(4, seed=1), dyn.XY_EFFECTIVE)
    with caplog.at_level(logging.DEBUG, logger="ionstring.dynamics"):
        result = dyn.evolve_grid(dyn.neel_state(4), spec, [0.0, 1e-3, 2e-3])
    assert f"{result.propagation_steps} propagation steps" in caplog.text
    assert "max norm error" in caplog.text
