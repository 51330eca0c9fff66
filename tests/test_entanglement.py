import itertools

import numpy as np
import pytest

from conftest import bell_state, ghz_state
from ionstring import entanglement as ent

W_STATE_LN3 = 0.9581441056060679  # frozen from the eigen-decomposition oracle


def w_state():
    psi = np.zeros(8, dtype=complex)
    psi[0b100] = psi[0b010] = psi[0b001] = 1.0 / np.sqrt(3.0)
    return psi


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def random_unitary(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_product_state_reduction_is_pure():
    psi = np.kron(np.kron([1, 0], [0.6, 0.8]), [1j / np.sqrt(2), 1 / np.sqrt(2)])
    rho = ent.reduced_density_matrix(psi.astype(complex), (2, 3))
    purity = np.real(np.trace(rho @ rho))
    np.testing.assert_allclose(purity, 1.0, atol=1e-12)
    assert float(ent.log_negativity_2(rho)) == 0.0


def test_embedded_bell_pair_reduces_to_maximally_entangled():
    # bell pair on ions (2, 3) inside a 4-ion product state
    psi = np.kron(np.kron([1, 0], bell_state()), [0, 1]).astype(complex)
    rho = ent.reduced_density_matrix(psi, (2, 3))
    expected = np.outer(bell_state(), bell_state().conj())
    np.testing.assert_allclose(rho, expected, atol=1e-12)
    np.testing.assert_allclose(float(ent.log_negativity_2(rho)), 1.0, atol=1e-9)


def test_ghz_reduction_is_classical_mixture():
    rho = ent.reduced_density_matrix(ghz_state(), (1, 2))
    np.testing.assert_allclose(rho, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)


def test_subset_order_and_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        ent.reduced_density_matrix(ghz_state(), (1, 1))
    with pytest.raises(ValueError):
        ent.reduced_density_matrix(ghz_state(), (0, 1))
    psi = np.kron([1, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)]).astype(complex)
    swapped = ent.reduced_density_matrix(psi, (2, 1))
    direct = ent.reduced_density_matrix(psi[[0, 2, 1, 3]], (1, 2))
    np.testing.assert_allclose(swapped, direct, atol=1e-12)


def test_partial_transpose_is_involution():
    rho = ent.reduced_density_matrix(random_state(4, 7), (1, 3))
    back = ent.partial_transpose(ent.partial_transpose(rho, (2, 2)), (2, 2))
    np.testing.assert_array_equal(back, rho)


def test_bell_log_negativity_is_one():
    rho = np.outer(bell_state(), bell_state().conj())
    result = ent.log_negativity_2(rho)
    np.testing.assert_allclose(result.value, 1.0, atol=1e-9)
    np.testing.assert_allclose(result.raw, 1.0, atol=1e-9)


def test_werner_closed_form():
    phi = np.outer(bell_state(), bell_state().conj())
    for p in np.linspace(0.0, 1.0, 11):
        rho = p * phi + (1.0 - p) * np.eye(4) / 4.0
        expected = np.log2(1.0 + max(0.0, (3.0 * p - 1.0) / 2.0))
        np.testing.assert_allclose(
            ent.log_negativity_2(rho).value, expected, atol=1e-9
        )


def test_local_unitary_invariance():
    rho = np.outer(bell_state(), bell_state().conj())
    base = ent.log_negativity_2(rho).value
    for seed in range(4):
        u = np.kron(random_unitary(seed), random_unitary(seed + 40))
        rotated = u @ rho @ u.conj().T
        np.testing.assert_allclose(
            ent.log_negativity_2(rotated).value, base, atol=1e-9
        )


def test_ln3_ghz_and_product():
    np.testing.assert_allclose(
        ent.log_negativity_3(ent.reduced_density_matrix(ghz_state(), (1, 2, 3))).value,
        1.0,
        atol=1e-8,
    )
    product = np.kron(np.kron([1, 0], [0.8, 0.6]), [1, 0]).astype(complex)
    assert (
        ent.log_negativity_3(ent.reduced_density_matrix(product, (1, 2, 3))).value
        == 0.0
    )


def test_ln3_w_state_golden():
    value = ent.log_negativity_3(ent.reduced_density_matrix(w_state(), (1, 2, 3))).value
    np.testing.assert_allclose(value, W_STATE_LN3, atol=1e-10)


def test_ln3_permutation_symmetric():
    psi = random_state(3, 11)
    rho = ent.reduced_density_matrix(psi, (1, 2, 3))
    base = ent.log_negativity_3(rho).value
    for order in [(2, 1, 3), (3, 2, 1), (2, 3, 1)]:
        permuted = ent.reduced_density_matrix(psi, order)
        np.testing.assert_allclose(
            ent.log_negativity_3(permuted).value, base, atol=1e-9
        )


def test_non_hermitian_input_rejected():
    rho = np.outer(bell_state(), bell_state().conj())
    rho[0, 1] += 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        ent.log_negativity_2(rho)


def test_tomography_infinite_shot_limit():
    psi = random_state(4, 9)
    for subset in [(1, 2), (2, 4), (1, 3, 4)]:
        exact = ent.reduced_density_matrix(psi, subset)
        estimate = ent.simulate_tomography(psi, subset, None)
        np.testing.assert_allclose(estimate, exact, atol=1e-10)


def test_tomography_bell_shot_limited():
    estimate = ent.simulate_tomography(bell_state(), (1, 2), 500, seed=7)
    trace = np.real(np.trace(estimate))
    np.testing.assert_allclose(trace, 1.0, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(estimate)) >= -1e-12
    value = ent.log_negativity_2(estimate).value
    assert abs(value - 1.0) < 0.1


def test_tomography_mixed_state_bias_bound():
    # two bell pairs (1,3), (2,4): the (1,2) reduction is fully mixed
    psi = (
        np.kron(bell_state(), bell_state())
        .reshape(2, 2, 2, 2)
        .transpose(0, 2, 1, 3)
        .reshape(16)
    )
    for seed in range(5):
        estimate = ent.simulate_tomography(psi, (1, 2), 1000, seed=seed)
        assert ent.log_negativity_2(estimate).value <= 0.05


def test_tomography_is_seed_deterministic():
    a = ent.simulate_tomography(bell_state(), (1, 2), 200, seed=13)
    b = ent.simulate_tomography(bell_state(), (1, 2), 200, seed=13)
    np.testing.assert_array_equal(a, b)


def test_tomography_counts_are_stable_under_roundoff():
    # a|00> + b|10> gives Z,X probabilities [a, a, b, b]/2, where a
    # multinomial's third binomial draw sits at p = 1/2 and flips its
    # counts under any change; moving 9e-18 of probability onto |11>
    # must leave every estimate unchanged
    a, b = np.sqrt(0.3), np.sqrt(0.7)
    psi = np.array([a, 0.0, b, 0.0], dtype=complex)
    moved = np.array([a, 0.0, np.sqrt(b**2 - 9e-18), np.sqrt(9e-18)], dtype=complex)
    for seed in range(40):
        np.testing.assert_array_equal(
            ent.simulate_tomography(psi, (1, 2), 200, seed=seed),
            ent.simulate_tomography(moved, (1, 2), 200, seed=seed),
        )


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def label_tomography_oracle(state, subset, shots_per_setting, seed=None):
    """The inversion simulate_tomography replaced: each Pauli string's
    expectation averaged over the settings that measure it, then summed
    with its kron-built operator. Sampling is the same."""
    rho_exact = ent.reduced_density_matrix(state, subset)
    k = len(subset)
    rng = np.random.default_rng(seed)
    estimates = {}
    outcomes = np.arange(2**k)
    bits = (outcomes[:, None] >> (k - 1 - np.arange(k))[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    for setting in itertools.product("XYZ", repeat=k):
        probs = ent._measurement_probabilities(rho_exact, setting)
        if shots_per_setting is None:
            freqs = probs
        else:
            draws = np.searchsorted(np.cumsum(probs)[:-1], rng.random(shots_per_setting), side="right")
            freqs = np.bincount(draws, minlength=probs.size) / shots_per_setting
        for support in itertools.product((0, 1), repeat=k):
            if not any(support):
                continue
            label = tuple(setting[q] if support[q] else "I" for q in range(k))
            mask = np.array(support, dtype=bool)
            estimates.setdefault(label, []).append(float(np.sum(freqs * np.prod(signs[:, mask], axis=1))))
    expectations = {label: float(np.mean(vals)) for label, vals in estimates.items()}
    expectations[("I",) * k] = 1.0
    rho_est = np.zeros((2**k, 2**k), dtype=complex)
    for label, mean in expectations.items():
        op = PAULI[label[0]]
        for letter in label[1:]:
            op = np.kron(op, PAULI[letter])
        rho_est += mean * op
    return ent.project_to_physical(rho_est / 2**k)


@pytest.mark.parametrize("shots", [None, 50, 200])
def test_tomography_matches_the_label_oracle(shots):
    rng = np.random.default_rng(21)
    for n in range(3, 7):
        psi = random_state(n, seed=100 + n)
        for size in (2, 3):
            subset = tuple(int(i) for i in rng.choice(np.arange(1, n + 1), size, replace=False))
            seed = int(rng.integers(2**31))
            estimate = ent.simulate_tomography(psi, subset, shots, seed=seed)
            oracle = label_tomography_oracle(psi, subset, shots, seed=seed)
            np.testing.assert_allclose(estimate, oracle, rtol=0.0, atol=1e-12)


def test_physical_projection_properties():
    rng = np.random.default_rng(1)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    projected = ent.project_to_physical(raw)
    np.testing.assert_allclose(np.trace(projected), 1.0, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(projected)) >= -1e-12
    np.testing.assert_allclose(projected, projected.conj().T, atol=1e-12)
