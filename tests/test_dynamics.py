import itertools
import logging
from functools import reduce
from math import comb

import numpy as np
import pytest
from scipy import special
from scipy.sparse.linalg import expm_multiply

from ionstring import dynamics as dyn
from ionstring.coupling import CouplingMatrix
from ionstring.errors import DimensionCapError, IonstringError, PropagationBudgetError


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
    h = dyn.build_hamiltonian(spec)
    psi = dyn.neel_state(6)
    out = dyn.evolve(psi, spec, 6e-3)
    e0 = np.real(np.vdot(psi, h @ psi))
    e1 = np.real(np.vdot(out, h @ out))
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
    spec = dyn.HamiltonianSpec(random_coupling(15, seed=0), dyn.ISING_TRANSVERSE)
    with pytest.raises(DimensionCapError, match="15 qubits exceeds the cap of 14"):
        dyn.evolve(dyn.neel_state(15), spec, 1e-3)


def per_point_oracle(state, spec, times):
    """The propagation evolve_grid replaced: one exponential from t = 0 per time."""
    h = dyn.build_hamiltonian(spec)
    return np.array([state.copy() if t == 0 else expm_multiply(-1j * t * h, state) for t in times])


def eigendecomposition_oracle(state, spec, times):
    """e^{-iHt} state from a dense eigendecomposition of the full-space H."""
    energies, vectors = np.linalg.eigh(dyn.build_hamiltonian(spec).toarray())
    amplitudes = vectors.conj().T @ state
    return np.array([vectors @ (np.exp(-1j * t * energies) * amplitudes) for t in times])


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
    assert result.chebyshev_terms > 0 and 0.0 < result.truncation_bound < dyn.TRUNCATION_TOLERANCE
    assert 0.0 <= result.max_norm_error < 1e-10


def test_evolve_grid_diagonal_hamiltonian_uses_exact_phases():
    spec = dyn.HamiltonianSpec(pair_coupling(0.0, n=4, field_b=250.0), dyn.ISING_TRANSVERSE)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    times = np.array([0.0, 1e-3, 1.5e-3, 4e-3])
    diagonal = dyn.build_hamiltonian(spec).diagonal()
    result = dyn.evolve_grid(psi, spec, times)
    expected = np.array([np.exp(-1j * t * diagonal) * psi for t in times])
    np.testing.assert_allclose(result.states, expected, rtol=0, atol=1e-12)
    assert result.chebyshev_terms == 0 and result.truncation_bound == 0.0
    assert result.spectral_bounds == (diagonal.min(), diagonal.max())


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
    def no_build(*args):
        raise AssertionError("no propagation, so no Hamiltonian")

    monkeypatch.setattr(dyn, "build_hamiltonian", no_build)
    monkeypatch.setattr(dyn, "_ising_x_folds", no_build)
    for model in (dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE):
        spec = dyn.HamiltonianSpec(random_coupling(4, seed=2, field_b=400.0), model)
        result = dyn.evolve_grid(dyn.neel_state(4), spec, [0.0, 0.0])
        assert result.chebyshev_terms == 0 and result.spectral_bounds is None and result.max_norm_error == 0.0


@pytest.mark.parametrize("scale", [0.5, 2.0, 1j, 0.6 - 0.8j])
@pytest.mark.parametrize("model", [dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE])
def test_evolve_grid_is_linear_in_the_input(model, scale):
    # a state of any norm, real, imaginary or complex, evolves as that factor times the unit Neel state
    spec = dyn.HamiltonianSpec(random_coupling(4, seed=2, field_b=400.0), model)
    times = [0.0, 1e-3, 2e-3]
    unit = dyn.evolve_grid(dyn.neel_state(4), spec, times)
    result = dyn.evolve_grid(scale * dyn.neel_state(4), spec, times)
    np.testing.assert_allclose(result.states, scale * unit.states, rtol=0, atol=1e-12)
    assert result.chebyshev_terms == unit.chebyshev_terms > 0
    assert 0.0 <= result.max_norm_error < 1e-10


def test_evolve_grid_repeated_times():
    # repeats at the start, inside and at the end of the grid
    times = np.repeat([0.0, 1e-3, 1.5e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 7e-3], [2, 3, 1, 4, 1, 5, 2, 3, 7])
    models, states = (dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE), (dyn.neel_state(5), two_label_state(5, 3))
    for model, psi in itertools.product(models, states):
        spec = dyn.HamiltonianSpec(random_coupling(5, seed=3, field_b=400.0), model)
        result = dyn.evolve_grid(psi, spec, times)
        for t in np.unique(times):
            rows = result.states[times == t]
            assert (rows == rows[0]).all()
        np.testing.assert_allclose(result.states, per_point_oracle(psi, spec, times), rtol=0, atol=1e-12)


@pytest.mark.parametrize("times", [[-1e-3], [0.0, -1e-4], [2e-3, 1e-3], [0.0, np.nan], [[1e-3]]])
def test_evolve_grid_rejects_bad_times(times):
    spec = dyn.HamiltonianSpec(random_coupling(3, seed=0), dyn.ISING_TRANSVERSE)
    with pytest.raises(ValueError, match="times"):
        dyn.evolve_grid(dyn.neel_state(3), spec, times)


def test_evolve_grid_rejects_the_zero_state():
    spec = dyn.HamiltonianSpec(random_coupling(3, seed=0), dyn.ISING_TRANSVERSE)
    with pytest.raises(ValueError, match="state is zero"):
        dyn.evolve_grid(np.zeros(8, dtype=complex), spec, [1e-3])


def test_evolve_grid_cap_checked_before_build(monkeypatch):
    def no_build(*args):
        raise AssertionError("the qubit cap must be checked before H is built")

    monkeypatch.setattr(dyn, "build_hamiltonian", no_build)
    monkeypatch.setattr(dyn, "_ising_x_folds", no_build)
    for model in (dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE):
        spec = dyn.HamiltonianSpec(random_coupling(15, seed=0, field_b=400.0), model)
        with pytest.raises(DimensionCapError, match="cap"):
            dyn.evolve_grid(dyn.neel_state(15), spec, [0.0, 1e-3])


def test_evolve_grid_logs_its_diagnostics(caplog):
    spec = dyn.HamiltonianSpec(random_coupling(4, seed=1), dyn.XY_EFFECTIVE)
    with caplog.at_level(logging.DEBUG, logger="ionstring.dynamics"):
        result = dyn.evolve_grid(dyn.neel_state(4), spec, [0.0, 1e-3, 2e-3])
    record = result.record()
    assert f"evolve_grid: {record}" in caplog.text
    assert record == {
        "chebyshev_terms": result.chebyshev_terms, "truncation_bound": result.truncation_bound,
        "spectral_bounds": list(result.spectral_bounds), "max_norm_error": result.max_norm_error,
        "sector_dim": result.sector_dim,
    }


def two_label_state(n, seed):
    """Random amplitudes on every basis state with 0 or 2 spins down."""
    rng = np.random.default_rng(seed)
    downs = np.array([bin(index).count("1") for index in range(2**n)])
    psi = np.where(np.isin(downs, (0, 2)), rng.normal(size=2**n) + 1j * rng.normal(size=2**n), 0.0)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9, 10])
@pytest.mark.parametrize("model", [dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE])
def test_sector_evolution_matches_full_space_oracle(model, n, grid):
    spec = dyn.HamiltonianSpec(random_coupling(n, seed=20 + n, field_b=np.pi * 3e3), model)
    times = GRIDS[grid]
    for psi in (dyn.neel_state(n, "even_up"), two_label_state(n, seed=n)):
        result = dyn.evolve_grid(psi, spec, times)
        assert result.sector_dim < 2**n
        assert result.states.shape == (len(times), 2**n)
        np.testing.assert_allclose(result.states, eigendecomposition_oracle(psi, spec, times), rtol=0, atol=1e-12)
        # per_point_oracle itself is up to 1.8e-12 off on the two-label states
        np.testing.assert_allclose(result.states, per_point_oracle(psi, spec, times), rtol=0, atol=1e-10)


@pytest.mark.parametrize("alignment", ["odd_up", "even_up"])
@pytest.mark.parametrize("n", [2, 3, 6, 9, 12])
def test_neel_sector_dimensions(n, alignment, caplog):
    psi = dyn.neel_state(n, alignment)
    for model, dim in ((dyn.XY_EFFECTIVE, comb(n, n // 2)), (dyn.ISING_TRANSVERSE, 2 ** (n - 1))):
        spec = dyn.HamiltonianSpec(random_coupling(n, seed=n, field_b=400.0), model)
        with caplog.at_level(logging.DEBUG, logger="ionstring.dynamics"):
            result = dyn.evolve_grid(psi, spec, [0.0, 1e-4])
        assert result.sector_dim == dim
        assert f"'sector_dim': {dim}}}" in caplog.text


@pytest.mark.parametrize("model", [dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE])
def test_state_on_every_label_gets_the_full_space(model):
    n = 6
    rng = np.random.default_rng(11)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi /= np.linalg.norm(psi)
    spec = dyn.HamiltonianSpec(random_coupling(n, seed=12, field_b=300.0), model)
    times = GRIDS["nonuniform"]
    result = dyn.evolve_grid(psi, spec, times)
    assert result.sector_dim == 2**n
    np.testing.assert_allclose(result.states, per_point_oracle(psi, spec, times), rtol=0, atol=1e-12)


def test_ising_without_field_keeps_the_parity_sector():
    n = 8
    spec = dyn.HamiltonianSpec(random_coupling(n, seed=13, field_b=0.0), dyn.ISING_TRANSVERSE)
    psi = dyn.neel_state(n)
    times = GRIDS["uniform"]
    result = dyn.evolve_grid(psi, spec, times)
    assert result.sector_dim == 2 ** (n - 1)
    np.testing.assert_allclose(result.states, per_point_oracle(psi, spec, times), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("model", [dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE])
def test_sector_hamiltonian_is_the_closed_block_of_the_full_one(model, n):
    spec = dyn.HamiltonianSpec(random_coupling(n, seed=14, field_b=500.0), model)
    full = dyn.build_hamiltonian(spec)
    rng = np.random.default_rng(15)
    for psi in (dyn.neel_state(n), two_label_state(n, seed=16)):
        basis = dyn._sector_basis(psi, model)
        outside = np.setdiff1d(np.arange(2**n), basis)
        embedded = np.zeros(2**n, dtype=complex)
        embedded[basis] = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        assert np.all((full @ embedded)[outside] == 0)
        block = full[basis][:, basis].toarray()
        np.testing.assert_array_equal(dyn.build_hamiltonian(spec, basis).toarray(), block)


def test_all_up_xy_state_takes_the_exact_phase_branch():
    spec = dyn.HamiltonianSpec(random_coupling(5, seed=17), dyn.XY_EFFECTIVE)
    psi = np.zeros(32, dtype=complex)
    psi[0] = 1.0
    result = dyn.evolve_grid(psi, spec, [0.0, 1e-3, 2e-3])
    assert result.sector_dim == 1 and result.chebyshev_terms == 0 and result.spectral_bounds == (0.0, 0.0)
    np.testing.assert_array_equal(result.states, np.tile(psi, (3, 1)))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("model", [dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE])
def test_gershgorin_bounds_hold_the_spectrum(model, n):
    spec = dyn.HamiltonianSpec(random_coupling(n, seed=30 + n, field_b=np.pi * 3e3), model)
    rng = np.random.default_rng(n)
    everywhere = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    times = GRIDS["nonuniform"]
    for psi in (dyn.neel_state(n), two_label_state(n, seed=n), everywhere / np.linalg.norm(everywhere)):
        result = dyn.evolve_grid(psi, spec, times)
        energies = np.linalg.eigvalsh(dyn.build_hamiltonian(spec, dyn._sector_basis(psi, model)).toarray())
        lo, hi = result.spectral_bounds
        assert lo <= energies.min() and energies.max() <= hi
        np.testing.assert_allclose(result.states, eigendecomposition_oracle(psi, spec, times), rtol=0, atol=1e-12)
    assert result.sector_dim == 2**n


def parity_states(n):
    """Both Neel alignments (opposite parities at odd N) and their odd_up one mixed with its ion-1 flip (both parities)."""
    odd_up, even_up = dyn.neel_state(n, "odd_up"), dyn.neel_state(n, "even_up")
    # rolling by 2^(N-1) moves the one amplitude to the index with ion 1 flipped
    return odd_up, even_up, (odd_up + np.roll(odd_up, 2 ** (n - 1))) / np.sqrt(2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9, 10])
def test_ising_parity_folds_match_the_eigendecomposition_oracle(n):
    spec = dyn.HamiltonianSpec(random_coupling(n, seed=60 + n, field_b=np.pi * 3e3), dyn.ISING_TRANSVERSE)
    times = GRIDS["nonuniform"]
    for psi, dim in zip(parity_states(n), (2 ** (n - 1), 2 ** (n - 1), 2**n)):
        result = dyn.evolve_grid(psi, spec, times)
        assert result.sector_dim == dim
        np.testing.assert_allclose(result.states, eigendecomposition_oracle(psi, spec, times), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(result.states[0], psi)


def test_ising_without_field_takes_exact_phases_in_the_sigma_x_basis():
    n = 7
    spec = dyn.HamiltonianSpec(random_coupling(n, seed=70, field_b=0.0), dyn.ISING_TRANSVERSE)
    times = GRIDS["uniform"]
    for psi in parity_states(n):
        result = dyn.evolve_grid(psi, spec, times)
        assert result.chebyshev_terms == 0 and result.truncation_bound == 0.0
        np.testing.assert_allclose(result.states, eigendecomposition_oracle(psi, spec, times), rtol=0, atol=1e-12)
        # diag(E) is the whole H, so its range is the sector's spectrum
        energies = np.linalg.eigvalsh(dyn.build_hamiltonian(spec, dyn._sector_basis(psi, spec.model)).toarray())
        np.testing.assert_allclose(result.spectral_bounds, (energies.min(), energies.max()), rtol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_ising_weyl_bounds_hold_the_spectrum_within_the_gershgorin_interval(n):
    spec = dyn.HamiltonianSpec(random_coupling(n, seed=80 + n, field_b=np.pi * 3e3), dyn.ISING_TRANSVERSE)
    for psi in parity_states(n):
        block = dyn.build_hamiltonian(spec, dyn._sector_basis(psi, spec.model)).toarray()
        energies = np.linalg.eigvalsh(block)
        radii = np.sum(np.abs(block), axis=1) - np.abs(np.diag(block))
        gershgorin = (np.min(np.diag(block) - radii), np.max(np.diag(block) + radii))
        lo, hi = dyn.evolve_grid(psi, spec, [1e-4]).spectral_bounds
        assert gershgorin[0] <= lo <= energies.min() and energies.max() <= hi <= gershgorin[1]


@pytest.mark.parametrize("n", [3, 12])
def test_ising_folds_store_n_plus_one_entries_per_row(n):
    # against 1 + N (N - 1) / 2 in the sigma^z parity sector: 13 against 67 at N = 12
    spec = dyn.HamiltonianSpec(random_coupling(n, seed=90, field_b=400.0), dyn.ISING_TRANSVERSE)
    for parities in ([1.0], [-1.0], [1.0, -1.0]):
        h = dyn._ising_x_folds(spec, np.array(parities))
        assert h.shape == (len(parities) * 2 ** (n - 1),) * 2
        np.testing.assert_array_equal(np.diff(h.indptr), n + 1)


@pytest.mark.parametrize("z", [1e-300, 1e-3, 0.5, 7.0, 348.0, 5000.5])
def test_series_is_cut_at_the_first_term_below_the_tolerance(z):
    table, bound = dyn._bessel_table(np.array([z]))
    terms = table.shape[1]
    tails = 2.0 * np.cumsum(np.abs(special.jv(np.arange(terms + 200), z))[::-1])[::-1]
    assert tails[terms] < dyn.TRUNCATION_TOLERANCE <= tails[terms - 1]
    if z >= 1e-150:
        assert bound == pytest.approx(tails[terms], rel=1e-9)
    else:
        # the table raises z to 1e-150, whose tail still bounds the smaller argument's
        assert tails[terms] <= bound <= 1e-150


def test_runaway_propagation_is_refused_before_the_recurrence(monkeypatch):
    spec = dyn.HamiltonianSpec(random_coupling(4, seed=18, field_b=np.pi * 3e3), dyn.ISING_TRANSVERSE)
    psi = dyn.neel_state(4)
    lo, hi = dyn.evolve_grid(psi, spec, [1e-4]).spectral_bounds

    def no_recurrence(*args):
        raise AssertionError("the budget must be checked before any matrix-vector product")

    monkeypatch.setattr(dyn, "_chebyshev_states", no_recurrence)
    # r*t_max past the budget, and just under it with the series' tail past it
    for z in (1e8, dyn.MAX_CHEBYSHEV_TERMS - 100):
        with pytest.raises(PropagationBudgetError, match=r"r\*t_max = "):
            dyn.evolve_grid(psi, spec, [0.0, z / ((hi - lo) / 2)])


@pytest.mark.parametrize(
    "model, entry, field_b",
    [
        *((model, entry, 0.0) for model in (dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE) for entry in (np.inf, np.nan)),
        # the XY model takes no field
        *((dyn.ISING_TRANSVERSE, 1.0, field_b) for field_b in (np.inf, np.nan)),
    ],
)
def test_non_finite_couplings_are_refused_before_the_bessel_table(monkeypatch, model, entry, field_b):
    def no_table(*args):
        raise AssertionError("a non-finite H must be refused before the Bessel table is built")

    monkeypatch.setattr(dyn, "_bessel_table", no_table)
    spec = dyn.HamiltonianSpec(pair_coupling(entry, n=3, field_b=field_b), model)
    with pytest.raises(IonstringError, match="spectral bounds .* of H are not finite"):
        dyn.evolve_grid(dyn.neel_state(3), spec, [0.0, 1e-3])


def kronecker_hamiltonian(spec):
    """Dense H from explicit Pauli Kronecker products, ion 1 the leftmost factor."""
    n = spec.coupling.ion_count
    up_from_down = np.array([[0.0, 1.0], [0.0, 0.0]])  # sigma^+ in the (up, down) basis
    pauli = {"x": np.array([[0.0, 1.0], [1.0, 0.0]]), "z": np.diag([1.0, -1.0]), "+": up_from_down, "-": up_from_down.T}

    def product(ops):
        return reduce(np.kron, [ops.get(ion, np.eye(2)) for ion in range(n)])

    h = np.zeros((2**n, 2**n))
    for i, k in itertools.combinations(range(n), 2):
        if spec.model == dyn.ISING_TRANSVERSE:
            term = product({i: pauli["x"], k: pauli["x"]})
        else:
            term = product({i: pauli["+"], k: pauli["-"]}) + product({i: pauli["-"], k: pauli["+"]})
        h += spec.coupling.j[i, k] * term
    if spec.model == dyn.ISING_TRANSVERSE:
        # the integer sum first, so the diagonal is B times an exact integer
        h += spec.coupling.field_b * sum(product({ion: pauli["z"]}) for ion in range(n))
    return h


@pytest.mark.parametrize("field_b", [0.0, 1234.5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("model", [dyn.ISING_TRANSVERSE, dyn.XY_EFFECTIVE])
def test_build_hamiltonian_matches_pauli_kronecker_products(model, n, field_b):
    coupling = random_coupling(n, seed=40 + n, field_b=field_b)
    if n > 2:
        # a pair without coupling has no entries
        coupling.j[0, 2] = coupling.j[2, 0] = 0.0
    spec = dyn.HamiltonianSpec(coupling, model)
    expected = kronecker_hamiltonian(spec)
    np.testing.assert_array_equal(dyn.build_hamiltonian(spec).toarray(), expected)
    downs = np.array([bin(index).count("1") for index in range(2**n)])
    labels = downs % 2 if model == dyn.ISING_TRANSVERSE else downs
    for label in np.unique(labels):
        basis = np.flatnonzero(labels == label)
        sector = dyn.build_hamiltonian(spec, basis)
        assert sector.shape == (basis.size, basis.size)
        np.testing.assert_array_equal(sector.toarray(), expected[np.ix_(basis, basis)])


def test_magnetization_of_a_stack_is_per_state():
    rng = np.random.default_rng(50)
    stack = rng.normal(size=(7, 64)) + 1j * rng.normal(size=(7, 64))
    stack /= np.linalg.norm(stack, axis=1, keepdims=True)
    mags = dyn.magnetization(stack)
    assert mags.shape == (7, 6)
    np.testing.assert_allclose(mags, [dyn.magnetization(state) for state in stack], rtol=0, atol=1e-15)
    grid = dyn.evolve_grid(dyn.neel_state(6), dyn.HamiltonianSpec(random_coupling(6, seed=51)), GRIDS["uniform"])
    np.testing.assert_allclose(dyn.magnetization(grid.states), [dyn.magnetization(s) for s in grid], rtol=0, atol=1e-15)


def test_one_bessel_table_and_no_special_function_serve_a_grid(monkeypatch):
    def no_special(*args, **kwargs):
        raise AssertionError("the propagation must take no scipy.special function")

    for name in special.__all__:
        if callable(getattr(special, name)):
            monkeypatch.setattr(special, name, no_special)
    tables = []
    bessel_table = dyn._bessel_table
    monkeypatch.setattr(dyn, "_bessel_table", lambda z: tables.append(z) or bessel_table(z))
    spec = dyn.HamiltonianSpec(random_coupling(6, seed=52, field_b=300.0), dyn.ISING_TRANSVERSE)
    result = dyn.evolve_grid(dyn.neel_state(6), spec, GRIDS["nonuniform"])
    assert result.chebyshev_terms > 0 and len(tables) == 1
    table, bound = bessel_table(tables[0])
    assert table.shape == (tables[0].size, result.chebyshev_terms) and bound == result.truncation_bound
