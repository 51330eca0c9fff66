import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

from ionstring import motion
from ionstring.constants import HBAR, KB, mass_from_amu, omega_from_hz, wavevector
from ionstring.errors import FockCutoffError

MASS = mass_from_amu(40.0)
OMEGA = omega_from_hz(112e3)
K729 = wavevector(729e-9)


def rotation(theta, phi):
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array(
        [[c, -1j * np.exp(-1j * phi) * s], [-1j * np.exp(1j * phi) * s, c]]
    )


def unitary_chain_excitation(n_pulses, omega, t_wait, k_z, amplitude, t_start):
    """Independent oracle: explicit 2x2 rotation products along a trajectory."""
    phases = [
        k_z * amplitude * np.sin(omega * (t_start + n * t_wait))
        for n in range(n_pulses + 2)
    ]
    u = rotation(np.pi / 2.0, 1.5 * np.pi + phases[0])
    for n in range(1, n_pulses + 1):
        theta = np.pi if n % 2 == 1 else -np.pi
        u = rotation(theta, phases[n]) @ u
    u = rotation(np.pi / 2.0, 0.5 * np.pi + phases[n_pulses + 1]) @ u
    return abs(u[0, 1]) ** 2


@pytest.mark.parametrize("n_pulses", [1, 2, 5, 10, 20])
def test_coefficient_sums_match_closed_form(n_pulses):
    x = np.linspace(0.0, 4.0 * np.pi, 1000)  # includes both singular points
    coeff = motion.phase_coefficients(n_pulses, x)
    assert np.max(np.abs(coeff.c2 - coeff.c2_closed)) < 1e-9


@pytest.mark.parametrize("n_pulses", [1, 2, 7, 25])
def test_phase_coefficients_are_the_explicit_kick_sums(n_pulses):
    # the pi/2 kicks at 0 and (Np+1) x, the pi kicks 2 (-1)^n at n x: the sums written out
    x = np.linspace(-30.0, 30.0, 4001)
    n = np.arange(1, n_pulses + 1)
    last = (-1.0) ** (n_pulses + 1) * np.exp(1j * (n_pulses + 1) * x)
    explicit = 1.0 + 2.0 * np.exp(1j * np.outer(x, n)) @ (-1.0) ** n + last
    coeff = motion.phase_coefficients(n_pulses, x)
    assert np.max(np.abs(coeff.a + 1j * coeff.b - explicit)) < 1e-11
    train = motion.wavefront_train(n_pulses, 0.3)
    assert train.tau == (n_pulses + 1) * 0.3
    np.testing.assert_allclose(np.array(train.delta) * train.tau, 0.3 * n, rtol=1e-15)


@pytest.mark.parametrize("n_pulses", [1, 3, 8, 20])
def test_c2_peak_and_echo_values(n_pulses):
    at_pi = motion.phase_coefficients(n_pulses, np.pi)
    np.testing.assert_allclose(at_pi.c2_closed, 4.0 * (n_pulses + 1) ** 2, rtol=1e-12)
    np.testing.assert_allclose(at_pi.c2, 4.0 * (n_pulses + 1) ** 2, rtol=1e-9)
    at_2pi = motion.phase_coefficients(n_pulses, 2.0 * np.pi)
    assert abs(at_2pi.c2) < 1e-9
    assert abs(at_2pi.c2_closed) < 1e-24


def test_trajectory_excitation_matches_unitary_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n_pulses = int(rng.integers(1, 25))
        omega = rng.uniform(0.5, 3.0)
        t_wait = rng.uniform(0.1, 6.0)
        k_z = rng.uniform(0.0, 2.0)
        amplitude = rng.uniform(0.0, 2.0)
        t_start = rng.uniform(-5.0, 5.0)
        model = motion.trajectory_excitation(n_pulses, omega, t_wait, k_z, amplitude, t_start)
        oracle = unitary_chain_excitation(n_pulses, omega, t_wait, k_z, amplitude, t_start)
        assert abs(model - oracle) < 1e-9


def params(t_wait, k_z=K729 * 4.8e-3, temperature=4.6e-3, n_pulses=20):
    return motion.SemiclassicalParams(
        omega=OMEGA, t_wait=t_wait, n_pulses=n_pulses,
        k_z=k_z, temperature=temperature, mass=MASS,
    )


def test_thermal_excitation_trivial_zeros():
    assert motion.thermal_excitation(params(1e-5, temperature=0.0)) == 0.0
    assert motion.thermal_excitation(params(1e-5, k_z=0.0)) == 0.0


def test_thermal_excitation_periodic_in_wait_time():
    period = 2.0 * np.pi / OMEGA
    for t_wait in (0.3 * period, 0.5 * period, 0.81 * period):
        a = motion.thermal_excitation(params(t_wait))
        b = motion.thermal_excitation(params(t_wait + period))
        np.testing.assert_allclose(a, b, atol=1e-12)


PEAK_WAIT = np.pi / OMEGA  # C^2 peaks at 4 (n_pulses + 1)^2 here


def test_peak_excitation_hardware_parameters():
    # 20 pulses, 112 kHz, 4.6 mK, tilt 4.8 mrad: the formula gives ~0.47
    value = motion.thermal_excitation(params(PEAK_WAIT))
    np.testing.assert_allclose(value, 0.4729, atol=5e-4)
    k_z = K729 * 4.8e-3
    closed_form = 0.5 * (1.0 - np.exp(-2.0 * KB * 4.6e-3 * k_z**2 * (20 + 1) ** 2 / (MASS * OMEGA**2)))
    np.testing.assert_allclose(value, closed_form, rtol=1e-12)


def test_excitation_monotonic_in_temperature_kz_and_pulses():
    temps = [1e-3, 2e-3, 4e-3, 8e-3]
    values = [motion.thermal_excitation(params(PEAK_WAIT, temperature=t)) for t in temps]
    assert np.all(np.diff(values) > 0)
    kzs = [100.0, 1e3, 1e4, 1e5]
    values = [motion.thermal_excitation(params(PEAK_WAIT, k_z=k)) for k in kzs]
    assert np.all(np.diff(values) > 0)
    pulses = [1, 2, 5, 10, 30]
    values = [motion.thermal_excitation(params(PEAK_WAIT, n_pulses=n)) for n in pulses]
    assert np.all(np.diff(values) > 0)


def test_thermal_excitation_saturates_at_half_past_the_float_range():
    # the exponent overflows to inf, where the excitation is 1/2; no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert motion.thermal_excitation(params(PEAK_WAIT, temperature=1e308)) == 0.5


def test_tilt_inference_roundtrip():
    for tilt in (0.5e-3, 1.4e-3, 4.8e-3):
        e_max = motion.thermal_excitation(params(PEAK_WAIT, k_z=K729 * np.sin(tilt)))
        back = motion.infer_tilt(e_max, OMEGA, 20, 4.6e-3, MASS, K729)
        assert abs(back - tilt) < 1e-9


def test_tilt_inference_rejects_saturation():
    with pytest.raises(ValueError, match="saturates"):
        motion.infer_k_z(0.5, OMEGA, 20, 4.6e-3, MASS)


def test_temperature_nbar_mapping():
    nbar = 170.0
    t = motion.temperature_from_nbar(nbar, omega_from_hz(128e3))
    assert 0.5e-3 < t < 2e-3  # sub-Doppler regime, order of a millikelvin


def test_cutoff_adequacy_rule_enforced():
    params = motion.SpinMotionParams(eta=0.01, rabi=1.0, omega=1.0, nbar=50.0, fock_cutoff=100)
    with pytest.raises(ValueError, match="adequacy"):
        motion.quantum_cpmg_scan(params, 2, [4.0])


@pytest.mark.parametrize(
    "level, rule, default", [(0, 20, 70), (2.0, 30.0, 80.0), (2.7, 33.5, 83.0), (10, 70, 120), (1e308, np.inf, np.inf)]
)
def test_cutoff_rule_floors_the_adequacy_rule_and_adds_the_margin(level, rule, default):
    assert motion.cutoff_rule(level) == (rule, default)


def test_quantum_scan_echo_closes_without_coupling():
    p = motion.SpinMotionParams(
        eta=0.0, rabi=50.0 * 2 * np.pi, omega=2 * np.pi, nbar=2.0, fock_cutoff=60
    )
    result = motion.quantum_cpmg_scan(p, 4, np.linspace(0.3, 1.2, 7))
    assert np.max(result.excitation) < 1e-10
    assert result.max_norm_error < 1e-8


def test_quantum_scan_odd_pulse_echo_also_closes():
    p = motion.SpinMotionParams(
        eta=0.0, rabi=40.0 * 2 * np.pi, omega=2 * np.pi, nbar=1.0, fock_cutoff=40
    )
    result = motion.quantum_cpmg_scan(p, 5, np.array([0.4, 0.9]))
    assert np.max(result.excitation) < 1e-10


def test_quantum_scan_matches_semiclassical_peak():
    # eta chosen so the thermal point-particle model peaks at 0.3 via the
    # k_B T = (nbar + 1/2) hbar w correspondence (exponent = eta^2 (nbar+1/2) C^2)
    nbar, n_pulses = 20.0, 20
    omega = 2.0 * np.pi
    target = 0.3
    exponent = -np.log(1.0 - 2.0 * target)
    eta = np.sqrt(exponent / (4.0 * (nbar + 0.5) * (n_pulses + 1) ** 2))
    p = motion.SpinMotionParams(
        eta=eta, rabi=50.0 * omega, omega=omega, nbar=nbar, fock_cutoff=170
    )
    result = motion.quantum_cpmg_scan(p, n_pulses, np.linspace(0.47, 0.55, 9))
    assert abs(result.excitation.max() - target) / target < 0.1
    assert result.truncated_weight < 0.02
    assert result.max_norm_error < 1e-8


@pytest.mark.parametrize("n_pulses", [1, 2, 3, 5])
def test_quantum_and_semiclassical_models_run_one_train_at_few_pulses(n_pulses):
    # at a short fast pulse the models agree only if both run the same train: with the
    # pi/2-pulses half a wait from their neighbours the quantum excitation would follow 4 Np^2, not 4 (Np + 1)^2
    nbar, eta, omega = 5.0, 0.05, 2.0 * np.pi
    p = motion.SpinMotionParams(eta=eta, rabi=200.0 * omega, omega=omega, nbar=nbar, fock_cutoff=95)
    quantum = motion.quantum_cpmg_scan(p, n_pulses, [0.5]).excitation[0]
    # eta = k_z sqrt(hbar / (2 m w)) and k_B T = (nbar + 1/2) hbar w make the two exponents equal
    k_z = eta / np.sqrt(HBAR / (2.0 * MASS * omega))
    temperature = motion.temperature_from_nbar(nbar, omega)
    semiclassical = motion.thermal_excitation(
        motion.SemiclassicalParams(
            omega=omega, t_wait=0.5, n_pulses=n_pulses, k_z=k_z, temperature=temperature, mass=MASS
        )
    )
    assert abs(quantum - semiclassical) < 0.02 * semiclassical


def test_quantum_scan_intermediate_peak_at_full_period():
    p = motion.SpinMotionParams(
        eta=0.02, rabi=2.0 * np.pi, omega=2.0 * np.pi, nbar=10.0, fock_cutoff=80
    )
    peak = motion.quantum_cpmg_scan(p, 6, np.linspace(0.94, 1.06, 7))
    floor = motion.quantum_cpmg_scan(p, 6, np.array([0.70, 0.76, 1.24, 1.30]))
    assert peak.excitation.max() > 5.0 * floor.excitation.mean()


def test_quantum_scan_thermal_weights_account_for_truncation():
    # ample cutoff: the thermal tail target of 1e-4 is honored
    roomy = motion.SpinMotionParams(
        eta=0.005, rabi=100.0 * np.pi, omega=2.0 * np.pi, nbar=30.0, fock_cutoff=340
    )
    result = motion.quantum_cpmg_scan(roomy, 2, np.array([0.52]))
    assert 0.0 <= result.truncated_weight <= 1e-4
    # tight cutoff: the distribution is clipped earlier and the clipped
    # weight is reported rather than silently dropped
    tight = motion.SpinMotionParams(
        eta=0.005, rabi=100.0 * np.pi, omega=2.0 * np.pi, nbar=30.0, fock_cutoff=170
    )
    clipped = motion.quantum_cpmg_scan(tight, 2, np.array([0.52]))
    assert clipped.truncated_weight > 1e-4
    expected = (30.0 / 31.0) ** (170 - 50 + 1)
    np.testing.assert_allclose(clipped.truncated_weight, expected, rtol=1e-10)


def test_quantum_scan_leak_raises():
    p = motion.SpinMotionParams(
        eta=3.0, rabi=10.0 * np.pi, omega=2.0 * np.pi, nbar=0.0, fock_cutoff=60
    )
    with pytest.raises(FockCutoffError, match="increase fock_cutoff"):
        motion.quantum_cpmg_scan(p, 20, np.array([0.85]))


def test_quantum_scan_rejects_overlapping_pulses():
    p = motion.SpinMotionParams(
        eta=0.01, rabi=2.0 * np.pi, omega=2.0 * np.pi, nbar=1.0, fock_cutoff=40
    )
    with pytest.raises(ValueError, match="pi-time"):
        motion.quantum_cpmg_scan(p, 2, np.array([0.3]))
    with pytest.raises(ValueError, match="n_pulses"):
        motion.quantum_cpmg_scan(p, 0, np.array([0.6]))


def test_thermal_excitation_takes_an_array_of_waits():
    waits = np.linspace(1e-6, 20e-6, 200)
    vectorized = motion.thermal_excitation(params(waits))
    looped = [motion.thermal_excitation(params(t)) for t in waits]
    assert vectorized.shape == waits.shape
    assert vectorized.tolist() == looped
    with pytest.raises(ValueError, match="positive"):
        params(np.array([1e-6, 0.0]))


@pytest.mark.parametrize("n_pulses", [1, 2, 20])
def test_thermal_excitation_equals_the_phase_coefficients_route(n_pulses):
    # the closed form alone, against C^2 taken from phase_coefficients next to the direct sums
    waits = np.concatenate([np.linspace(1e-6, 20e-6, 200), [np.pi / OMEGA, 2.0 * np.pi / OMEGA]])
    p = params(waits, n_pulses=n_pulses)
    c2 = motion.phase_coefficients(n_pulses, OMEGA * waits).c2_closed
    exponent = KB * p.temperature * p.k_z**2 * c2 / (2.0 * MASS * OMEGA**2)
    assert np.array_equal(motion.thermal_excitation(p), 0.5 * (1.0 - np.exp(-exponent)))
    assert motion.thermal_excitation(params(waits[7], n_pulses=n_pulses)) == 0.5 * (1.0 - np.exp(-exponent[7]))


def dense_propagators(params):
    """The pi/2- and pi-pulse propagators about +x from one eigendecomposition
    of the full pulse Hamiltonian in block (spin, n) order, spin up first,
    with D from the eigenbasis of the truncated position operator."""
    dim = params.fock_cutoff + 1
    n = np.arange(dim)
    h_motion = params.omega * (n + 0.5)
    x = np.zeros((dim, dim))
    x[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(n[1:])
    x += x.T
    xe, xv = np.linalg.eigh(x)
    displacement = (xv * np.exp(1j * params.eta * xe)[None, :]) @ xv.conj().T
    h = np.zeros((2 * dim, 2 * dim), dtype=complex)
    h[:dim, :dim] = np.diag(h_motion - 0.5 * params.detuning)
    h[dim:, dim:] = np.diag(h_motion + 0.5 * params.detuning)
    h[:dim, dim:] = 0.5 * params.rabi * displacement
    h[dim:, :dim] = 0.5 * params.rabi * displacement.conj().T
    energies, vectors = np.linalg.eigh(h)

    def propagator(duration):
        return (vectors * np.exp(-1j * energies * duration)[None, :]) @ vectors.conj().T

    return propagator(0.5 * params.pi_time), propagator(params.pi_time)


def dense_scan_oracle(params, n_pulses, t_wait_values, initial_fock=None, thermal_tail=1e-4):
    """Excitation from the dense path: the propagators of
    ``dense_propagators``, pulse phases by conjugation and dense products
    at every pulse."""
    t_wait = np.atleast_1d(np.asarray(t_wait_values, dtype=float))
    t_pi = params.pi_time
    dim = params.fock_cutoff + 1
    if initial_fock is not None:
        init_levels, weights = np.array([initial_fock]), np.ones(1)
    else:
        hard_cap = max(0, params.fock_cutoff - 50)
        n = np.arange(hard_cap + 1)
        if params.nbar == 0:
            w_full = (n == 0).astype(float)
        else:
            r = params.nbar / (params.nbar + 1.0)
            w_full = r**n / (params.nbar + 1.0)
        hits = np.nonzero(np.cumsum(w_full) >= 1.0 - thermal_tail)[0]
        n_top = int(hits[0]) if hits.size else hard_cap
        weights = w_full[: n_top + 1] / w_full[: n_top + 1].sum()
        init_levels = np.arange(n_top + 1)

    def pulse(u0, phase, psi):
        up = np.exp(-0.5j * phase)
        w = np.concatenate([np.full(dim, up), np.full(dim, up.conjugate())])
        return w[:, None] * (u0 @ (w.conj()[:, None] * psi))

    h_motion = params.omega * (np.arange(dim) + 0.5)
    wait_diag = np.concatenate([h_motion - 0.5 * params.detuning, h_motion + 0.5 * params.detuning])
    u_half, u_pi = dense_propagators(params)
    psi0 = np.zeros((2 * dim, init_levels.size), dtype=complex)
    psi0[dim + init_levels, np.arange(init_levels.size)] = 1.0
    excitation = np.empty(t_wait.shape)
    for idx, tw in enumerate(t_wait):
        # pulse centres one wait apart: the gaps lose half of each neighbouring pulse
        end_gap = np.exp(-1j * wait_diag * (tw - 0.75 * t_pi))[:, None]
        full_gap = np.exp(-1j * wait_diag * (tw - t_pi))[:, None]
        psi = end_gap * pulse(u_half, 1.5 * np.pi, psi0)
        for k in range(n_pulses):
            psi = pulse(u_pi, 0.0 if k % 2 == 0 else np.pi, psi)
            if k < n_pulses - 1:
                psi = full_gap * psi
        psi = pulse(u_half, 0.5 * np.pi, end_gap * psi)
        excitation[idx] = float(weights @ np.sum(np.abs(psi[:dim, :]) ** 2, axis=0))
    return excitation



def sparse_pulse_hamiltonian(params, dim):
    """D, its error bound and H of ``motion._pulse_hamiltonian`` on the levels
    [0, dim), by sparse operator algebra: D by ``motion._banded_expm`` of
    the truncated generator eta (a+ - a), H by kron and diags."""
    ladder = sparse.diags(np.sqrt(np.arange(1.0, dim)), 1)
    displacement, _, d_bound = motion._banded_expm(params.eta * (ladder.T - ladder), 1)
    dp = displacement @ sparse.diags((-1.0) ** np.arange(dim))
    sectors = sparse.kron(0.25 * params.rabi * (dp + dp.T), sparse.diags([1.0, -1.0]), format="csr")
    mix = -0.5 * params.detuning
    mixing = sparse.kron(sparse.identity(dim), sparse.csr_matrix([[0.0, mix], [mix, 0.0]]), format="csr")
    levels = params.omega * (np.arange(dim) + 0.5)
    h = sectors + mixing + sparse.diags(np.repeat(levels - 0.5 * (levels[0] + levels[-1]), 2))
    return displacement, d_bound, h.tocsr()


def sparse_to_spin(u):
    """u from the (n, +/-) basis to the (n, spin) basis as the sparse
    product 0.5 Q u Q^T, pruned below the drop floor, and the norm pruned."""
    dim = u.shape[0] // 2
    signs = np.stack([np.ones(dim), (-1.0) ** np.arange(dim)], axis=1).ravel()
    q = sparse.diags(signs) @ sparse.kron(sparse.identity(dim), [[1.0, 1.0], [1.0, -1.0]])
    return motion._prune((0.5 * (q @ u @ q.T)).tocsr())


def csr_slabs(u):
    """The column spans of the 32-row blocks of u and the blocks, dense over their spans, by CSR slicing."""
    spans, blocks = [], []
    for start in range(0, u.shape[0], motion._SLAB_ROWS):
        block = u[start : start + motion._SLAB_ROWS]
        lo, hi = int(block.indices.min()), int(block.indices.max()) + 1
        spans.append((lo, hi))
        blocks.append(block[:, lo:hi].toarray())
    return np.array(spans), blocks


def level_band_width(u):
    """The largest level distance |n - m| of u's stored entries, two rows per level."""
    rows, cols = u.nonzero()
    return int(np.max(np.abs(rows // 2 - cols // 2), initial=0))


def slabs_to_dense(slabs, rows):
    spans, blocks = slabs
    dense = np.zeros((rows, rows), dtype=complex)
    for s, ((lo, hi), block) in enumerate(zip(spans, blocks)):
        dense[s * motion._SLAB_ROWS : s * motion._SLAB_ROWS + block.shape[0], lo:hi] = block
    return dense


OMEGA_Q = 2.0 * np.pi


def thermal_peak_eta(nbar, n_pulses=20, target=0.3):
    return float(np.sqrt(-np.log(1.0 - 2.0 * target) / (4.0 * (nbar + 0.5) * (n_pulses + 1) ** 2)))


ORACLE_CASES = {
    **{
        f"fig11_rabi_{ratio:g}": (
            motion.SpinMotionParams(eta=0.01, rabi=ratio * OMEGA_Q, omega=OMEGA_Q, nbar=50.0, fock_cutoff=320),
            10,
            np.linspace(max(0.55, 1.05 / ratio / 2.0), 2.2, 4),
            50,
        )
        for ratio in (0.5, 1.0, 5.0, 50.0)
    },
    "thermal": (
        motion.SpinMotionParams(
            eta=thermal_peak_eta(30.0), rabi=50.0 * OMEGA_Q, omega=OMEGA_Q, nbar=30.0, fock_cutoff=250
        ),
        20,
        np.linspace(0.47, 0.55, 3),
        None,
    ),
    "detuned": (
        motion.SpinMotionParams(
            eta=0.02, rabi=3.0 * OMEGA_Q, omega=OMEGA_Q, detuning=0.7 * OMEGA_Q, nbar=5.0, fock_cutoff=100
        ),
        6,
        np.linspace(0.4, 1.3, 5),
        None,
    ),
    # an odd count: the last pi-pulse is about +x, not -x
    "detuned_odd": (
        motion.SpinMotionParams(
            eta=0.02, rabi=3.0 * OMEGA_Q, omega=OMEGA_Q, detuning=0.7 * OMEGA_Q, nbar=5.0, fock_cutoff=100
        ),
        5,
        np.linspace(0.4, 1.3, 5),
        None,
    ),
    "eta_0": (
        motion.SpinMotionParams(eta=0.0, rabi=5.0 * OMEGA_Q, omega=OMEGA_Q, nbar=3.0, fock_cutoff=60),
        4,
        np.linspace(0.3, 1.2, 5),
        None,
    ),
    # the band is the full matrix
    "eta_3": (
        motion.SpinMotionParams(eta=3.0, rabi=5.0 * OMEGA_Q, omega=OMEGA_Q, nbar=0.0, fock_cutoff=120),
        2,
        np.array([0.3, 0.85]),
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_banded_scan_matches_dense_oracle(case):
    p, n_pulses, t_wait, fock = ORACLE_CASES[case]
    result = motion.quantum_cpmg_scan(p, n_pulses, t_wait, initial_fock=fock)
    oracle = dense_scan_oracle(p, n_pulses, t_wait, initial_fock=fock)
    assert np.max(np.abs(result.excitation - oracle)) <= 1e-10
    assert 0.0 <= result.band_dropped_norm <= 1e-12
    assert result.max_norm_error < 1e-8
    assert result.squarings >= 1
    # the band holds every level distance at which the exact pi-pulse moves more than 1e-12
    dim = p.fock_cutoff + 1
    rows, cols = np.nonzero(np.abs(dense_propagators(p)[1]) > 1e-12)
    assert result.band_width >= np.max(np.abs(rows % dim - cols % dim))
    if case == "eta_0":
        assert result.band_width == 0
    elif case != "eta_3":
        assert 0 < result.band_width < 20


def full_basis_scan(monkeypatch, p, n_pulses, t_wait, initial_fock=None):
    """The scan on all fock_cutoff + 1 levels: its first basis reaches past the cutoff."""
    with monkeypatch.context() as patch:
        patch.setattr(motion, "_REACH", p.fock_cutoff + 1)
        return motion.quantum_cpmg_scan(p, n_pulses, t_wait, initial_fock=initial_fock)


@pytest.mark.parametrize("case", ["fig11_rabi_0.5", "fig11_rabi_1", "fig11_rabi_5", "fig11_rabi_50", "thermal"])
def test_sized_basis_scan_equals_the_full_basis(monkeypatch, case):
    p, n_pulses, t_wait, fock = ORACLE_CASES[case]
    sized = motion.quantum_cpmg_scan(p, n_pulses, t_wait, initial_fock=fock)
    full = full_basis_scan(monkeypatch, p, n_pulses, t_wait, fock)
    assert full.levels == p.fock_cutoff + 1
    assert np.max(np.abs(sized.excitation - full.excitation)) <= 1e-12
    # a Fock-50 column reaches a few slabs; the thermal case's top initial level is the cutoff margin
    assert sized.levels <= 128 if fock is not None else sized.levels == p.fock_cutoff + 1


def test_sized_basis_of_a_thermal_scan_below_the_cutoff(monkeypatch):
    # the cutoff-400 thermal job of the wavefront benchmark: levels to 308, a basis of 384
    p = motion.SpinMotionParams(
        eta=thermal_peak_eta(33.0), rabi=50.0 * OMEGA_Q, omega=OMEGA_Q, nbar=33.0, fock_cutoff=400
    )
    t_wait = np.array([0.498, 0.506])
    sized = motion.quantum_cpmg_scan(p, 20, t_wait)
    assert sized.levels < p.fock_cutoff + 1
    full = full_basis_scan(monkeypatch, p, 20, t_wait)
    assert np.max(np.abs(sized.excitation - full.excitation)) <= 1e-12


def test_a_window_near_the_top_of_the_basis_doubles_it(monkeypatch):
    # 40 levels above Fock 50 pass the check before the first pulse, but the windows reach level 80
    # within the first wait, so the scan starts again on twice the levels
    p, n_pulses, t_wait, fock = ORACLE_CASES["fig11_rabi_5"]
    full = full_basis_scan(monkeypatch, p, n_pulses, t_wait, fock)
    monkeypatch.setattr(motion, "_REACH", 40)
    result = motion.quantum_cpmg_scan(p, n_pulses, t_wait, initial_fock=fock)
    assert result.levels == 192
    assert np.max(np.abs(result.excitation - full.excitation)) <= 1e-12


def test_eta_3_grows_the_basis_to_the_cutoff_before_any_pulse(monkeypatch):
    # the band of the propagators spans any basis below the cutoff, so every pulse runs on all of it
    p, n_pulses, t_wait, fock = ORACLE_CASES["eta_3"]
    rows = []
    apply = motion._apply

    def recording_apply(slabs, psi, *args, **kwargs):
        rows.append(psi.shape[0])
        return apply(slabs, psi, *args, **kwargs)

    monkeypatch.setattr(motion, "_apply", recording_apply)
    result = motion.quantum_cpmg_scan(p, n_pulses, t_wait, initial_fock=fock)
    assert result.levels == p.fock_cutoff + 1
    # the two waits together through every pulse after the first pi/2-pulse, which is a gather
    assert rows == [2 * result.levels] * (n_pulses + 1)
    assert np.max(np.abs(result.excitation - dense_scan_oracle(p, n_pulses, t_wait, initial_fock=fock))) <= 1e-10


def test_quantum_scan_logs_solver_diagnostics(caplog):
    p, n_pulses, t_wait, fock = ORACLE_CASES["detuned"]
    with caplog.at_level(logging.DEBUG, logger="ionstring.motion"):
        result = motion.quantum_cpmg_scan(p, n_pulses, t_wait, initial_fock=fock)
    assert f"quantum_cpmg_scan: {result.record()}" in caplog.text
    assert set(result.record()) == {
        "max_leak", "max_norm_error", "truncated_weight", "band_width", "squarings", "band_dropped_norm", "levels",
        "first_level", "stack_bytes", "column_fill",
    }


def test_windowed_scan_matches_dense_oracle_at_benchmark_thermal_settings():
    # the cutoff-400 thermal job of the wavefront benchmark: 309 columns,
    # each of which stays within a few slabs of the 802-row stack
    p = motion.SpinMotionParams(
        eta=thermal_peak_eta(33.0), rabi=50.0 * OMEGA_Q, omega=OMEGA_Q, nbar=33.0, fock_cutoff=400
    )
    t_wait = np.array([0.498, 0.506])
    result = motion.quantum_cpmg_scan(p, 20, t_wait)
    assert np.max(np.abs(result.excitation - dense_scan_oracle(p, 20, t_wait))) <= 1e-10
    assert 0.0 <= result.band_dropped_norm <= 1e-12
    # every slab times every column would give 1
    assert result.column_fill < 0.5


def test_a_thermal_scan_holds_one_state_stack():
    # the benchmark's cutoff-400 thermal job: 309 states a wait, on 384 levels. The pulses act on one
    # rows x columns stack in place, so the traced peak holds it, both propagators' slab strips, and
    # products of a few slabs; a second stack would pass the bound
    p = motion.SpinMotionParams(
        eta=thermal_peak_eta(33.0), rabi=50.0 * OMEGA_Q, omega=OMEGA_Q, nbar=33.0, fock_cutoff=400
    )
    t_wait = np.array([0.498, 0.506])
    tracemalloc.start()
    try:
        result = motion.quantum_cpmg_scan(p, 20, t_wait)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.first_level, result.levels) == (0, 384)
    stack = 2 * result.levels * 309 * np.dtype(complex).itemsize
    h = motion._pulse_hamiltonian(p, 0, result.levels)[0]
    u_half = motion._banded_expm(0.5 * p.pi_time * h, -1j)[0]
    # each slab's block is a view of its propagator's strips
    strips = sum(motion._spin_slabs(u, 0)[0][1][0].base.nbytes for u in (u_half, motion._square(u_half, 0.0)[0]))
    assert peak < 1.5 * stack + strips
    assert result.stack_bytes == stack


def test_column_fill_of_a_single_fock_column(caplog):
    # the band is the whole matrix, so every slab meets the one column
    p, n_pulses, t_wait, fock = ORACLE_CASES["eta_3"]
    with caplog.at_level(logging.DEBUG, logger="ionstring.motion"):
        assert motion.quantum_cpmg_scan(p, n_pulses, t_wait, initial_fock=fock).column_fill == 1.0
    assert "'column_fill': 1.0}" in caplog.text
    # at fig11 settings the states stay near their Fock level, so the basis holds far fewer levels than the cutoff
    p, n_pulses, t_wait, fock = ORACLE_CASES["fig11_rabi_5"]
    assert p.fock_cutoff == 320
    assert motion.quantum_cpmg_scan(p, n_pulses, t_wait, initial_fock=fock).levels <= 128


@pytest.mark.parametrize("first_slab", [[0, 1, 3, 5, 6, 8], [3, 0, 6, 1, 8, 5], [5, 8, 0, 6, 1, 3]])
def test_windowed_pulse_drops_only_entries_below_the_floor(first_slab):
    # one pi-pulse on columns with sub-floor noise outside their row
    # windows, which are sorted or not; each starts at the last column of
    # one slab's span and ends at the first column of another's
    p = motion.SpinMotionParams(eta=0.01, rabi=5.0 * OMEGA_Q, omega=OMEGA_Q, fock_cutoff=200)
    h, free, _, _ = motion._pulse_hamiltonian(p, 0, p.fock_cutoff + 1)
    parity = motion._banded_expm(p.pi_time * h, -1j)[0]
    u, slabs = sparse_to_spin(parity)[0], motion._spin_slabs(parity, 0)[0]
    rows = 2 * (p.fock_cutoff + 1)
    first_slab = np.array(first_slab)
    lo, hi = slabs[0][first_slab, 1] - 1, slabs[0][first_slab + 3, 0] + 1
    rng = np.random.default_rng(3)
    psi = 1e-21 * rng.normal(size=(rows, lo.size)) + 0j
    for j in range(lo.size):
        psi[lo[j] : hi[j], j] = rng.normal(size=hi[j] - lo[j]) + 1j * rng.normal(size=hi[j] - lo[j])
    phases = np.exp(-0.3j * free)[:, None]
    exact = phases * (u @ psi)
    # the noise fills every slab's rows, so each was written in every column
    written = [(0, lo.size)] * len(slabs[1])
    new_lo, new_hi, pairs = motion._apply(slabs, psi, written, lo, hi, phases)
    out = psi
    floor = motion._DROP_FLOOR
    np.testing.assert_allclose(out, exact, rtol=0.0, atol=1e-13)
    # the (slab, column) products left out hold only what sub-floor entries give
    skipped = np.where(out == 0.0, exact, 0.0)
    assert np.all(np.linalg.norm(skipped, axis=0) <= floor * np.sqrt(rows))
    for j in range(lo.size):
        big = np.flatnonzero(np.abs(out[:, j]) >= floor)
        assert new_lo[j] <= big.min() and big.max() < new_hi[j]
    assert 0 < pairs < len(slabs[1]) * lo.size


def test_windowed_pulse_into_a_used_stack_equals_one_into_a_new_stack():
    # rows written wider than the pulse's product are zeroed there, so the product is the same bytes
    p = motion.SpinMotionParams(eta=0.01, rabi=5.0 * OMEGA_Q, omega=OMEGA_Q, fock_cutoff=200)
    h, free, _, _ = motion._pulse_hamiltonian(p, 0, p.fock_cutoff + 1)
    u = motion._banded_expm(p.pi_time * h, -1j)[0]
    spin, slabs = sparse_to_spin(u)[0], motion._spin_slabs(u, 0)[0]
    rows = 2 * (p.fock_cutoff + 1)
    rng = np.random.default_rng(5)
    wide = rng.normal(size=(rows, 4)) + 1j * rng.normal(size=(rows, 4))
    narrow = np.zeros((rows, 4), dtype=complex)
    lo, hi = np.array([40, 40, 200, 330]), np.array([72, 100, 230, 400])
    for j in range(4):
        narrow[lo[j] : hi[j], j] = wide[lo[j] : hi[j], j]
    phases = np.exp(-0.3j * free)[:, None]
    slab_rows = np.arange(rows) // motion._SLAB_ROWS

    def tight(psi):
        """The column range of each slab's nonzero rows, as a new stack written with psi records it."""
        ranges = []
        for s in range(len(slabs[1])):
            held = np.flatnonzero(psi[slab_rows == s].any(axis=0))
            ranges.append((int(held[0]), int(held[-1]) + 1) if held.size else (0, 0))
        return ranges

    def inside(psi, ranges):
        """Whether each slab's rows of psi hold zeros outside the slab's range."""
        return all(not psi[slab_rows == s][:, np.r_[:first, stop:4]].any() for s, (first, stop) in enumerate(ranges))

    # a stack whose every slab's rows were last written in all four columns
    used, fresh = (narrow.copy(), [(0, 4)] * len(slabs[1])), (narrow.copy(), tight(narrow))
    reused = motion._apply(slabs, *used, lo, hi, phases)
    new = motion._apply(slabs, *fresh, lo, hi, phases)
    assert used[0].tobytes() == fresh[0].tobytes()
    assert used[1] == fresh[1] and inside(*used)
    for got, want in zip(reused, new):
        assert np.array_equal(got, want)
    # the same windows on a stack full of entries: each slab's rows keep only the columns it multiplied
    dense = wide.copy(), [(0, 4)] * len(slabs[1])
    motion._apply(slabs, *dense, lo, hi, phases)
    exact = phases * (spin @ wide)
    assert inside(*dense)
    for s, (first, stop) in enumerate(dense[1]):
        np.testing.assert_allclose(
            dense[0][slab_rows == s, first:stop], exact[slab_rows == s, first:stop], rtol=0.0, atol=1e-13
        )
    assert dense[1] == fresh[1]


def test_gathered_opening_equals_the_pulse_on_unit_columns():
    # the first pi/2-pulse gathers its columns; a product with the unit columns only multiplies by 1
    # and adds zeros, so every nonzero entry is the same bits, and each wait takes its phases
    p = motion.SpinMotionParams(eta=0.01, rabi=5.0 * OMEGA_Q, omega=OMEGA_Q, fock_cutoff=200)
    h, free, _, _ = motion._pulse_hamiltonian(p, 0, p.fock_cutoff + 1)
    half = motion._spin_slabs(motion._banded_expm(0.5 * p.pi_time * h, -1j)[0], 0)[0]
    rows = 2 * (p.fock_cutoff + 1)
    down = 2 * np.array([0, 3, 15, 16, 40, 150, 200]) + 1
    units, written = motion._stack(rows, down.size)
    units[down, np.arange(down.size)] = 1.0
    written[:] = [(0, down.size)] * len(written)
    lo, hi, pairs = motion._apply(half, units, written, down, down + 1)
    assert 0 < pairs < len(half[1]) * down.size
    phases = np.exp(-1j * np.multiply.outer(free, [0.3, 0.7, 1.1]))
    opened, opened_written = motion._stack(rows, 3 * down.size)
    opened_lo, opened_hi = motion._open(half, down, phases, opened, opened_written)
    assert np.array_equal(opened_lo, np.repeat(lo, 3)) and np.array_equal(opened_hi, np.repeat(hi, 3))
    assert opened_written == [(3 * first, 3 * stop) for first, stop in written]
    gathered, _ = motion._stack(rows, down.size)
    motion._open(half, down, np.ones((rows, 1)), gathered, [(0, 0)] * len(written))
    for got, want in ((gathered, units), (opened, (phases[:, None, :] * units[:, :, None]).reshape(rows, -1))):
        # with the phases, a column per (state, wait), level-major
        nonzero = want != 0.0
        assert np.array_equal(got != 0.0, nonzero)
        assert got[nonzero].tobytes() == want[nonzero].tobytes()


@pytest.mark.parametrize("detuning", [0.0, 0.7])
def test_parity_built_propagators_match_the_dense_oracle(detuning):
    # the detuned oracle case, and the same drive on resonance
    p = motion.SpinMotionParams(
        eta=0.02, rabi=3.0 * OMEGA_Q, omega=OMEGA_Q, detuning=detuning * OMEGA_Q, fock_cutoff=100
    )
    h = motion._pulse_hamiltonian(p, 0, p.fock_cutoff + 1)[0]
    u_half = motion._banded_expm(0.5 * p.pi_time * h, -1j)[0]
    u_pi = motion._square(u_half, 0.0)[0]
    # even indices are (n, +), odd ones (n, -): on resonance no entry couples the two sectors
    for u in (h, u_half, u_pi):
        rows, cols = u.nonzero()
        assert np.any(rows % 2 != cols % 2) == (detuning != 0.0)
    # back in the lab frame: undo the gauge diag(i^n) x 1, and go from interleaved to block order
    dim = p.fock_cutoff + 1
    gauge = np.repeat(1j ** np.arange(dim), 2)
    block = (np.arange(2 * dim) % 2) * dim + np.arange(2 * dim) // 2
    for u, dense in zip((u_half, u_pi), dense_propagators(p)):
        spin = slabs_to_dense(motion._spin_slabs(u, 0)[0], 2 * dim)
        lab = gauge[:, None] * spin * gauge.conj()[None, :]
        exact = dense[np.ix_(block, block)]
        overlap = np.vdot(lab, exact)
        np.testing.assert_allclose(overlap / abs(overlap) * lab, exact, rtol=0.0, atol=1e-12)


def test_banded_expm_takes_a_real_generator_and_its_bound_saturates():
    ladder = np.diag(np.sqrt(np.arange(1.0, 8)), 1)
    displacement = motion._banded_expm(0.3 * (ladder.T - ladder), 1)[0]
    assert not np.iscomplexobj(displacement.data)
    np.testing.assert_allclose((displacement @ displacement.T).toarray(), np.eye(8), atol=1e-14)
    with pytest.raises(TypeError, match="real generator"):
        motion._banded_expm(0.3j * (ladder + ladder.T), 1)
    assert motion._square(displacement, 1e300)[1] == np.inf


# on resonance, detuned, and with a band that spans the basis (seven squarings of D)
ARRAY_CASES = {"resonant": (0.01, 0.0, 128), "detuned": (0.02, 0.7, 101), "eta_3": (3.0, 0.0, 121)}


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_array_built_displacement_and_hamiltonian_match_the_sparse_algebra(case):
    eta, detuning, dim = ARRAY_CASES[case]
    p = motion.SpinMotionParams(eta=eta, rabi=5.0 * OMEGA_Q, omega=OMEGA_Q, detuning=detuning * OMEGA_Q)
    d_sparse, bound_sparse, h_sparse = sparse_pulse_hamiltonian(p, dim)
    d, d_bound = motion._displacement(eta, 0, dim)
    h, free, h_bound, width = motion._pulse_hamiltonian(p, 0, dim)
    # the Taylor terms are the sparse ones entry for entry; D's squarings sum in the order of the
    # sparse matrix's unsorted indices, which moves each of the seven at eta 3 by its roundoff
    squarings = int(np.ceil(np.log2(max(1.0, 2.0 * eta * np.sqrt(dim - 1)))))
    assert (squarings == 0) == (case != "eta_3")
    atol = 1e-15 * 2.0**squarings
    assert d.nnz == d_sparse.nnz and h.nnz == h_sparse.nnz
    assert abs(d - d_sparse).max() <= atol
    assert abs(h - h_sparse).max() <= atol * 0.5 * p.rabi
    np.testing.assert_allclose([d_bound, h_bound], [bound_sparse, bound_sparse], rtol=1e-6, atol=0.0)
    assert width == level_band_width(h_sparse)
    levels = p.omega * (np.arange(dim) + 0.5)
    assert np.array_equal(free, np.add.outer(levels, [-0.5 * p.detuning, 0.5 * p.detuning]).ravel())


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_spin_slabs_match_the_sparse_basis_change_and_csr_slicing(case):
    eta, detuning, dim = ARRAY_CASES[case]
    p = motion.SpinMotionParams(eta=eta, rabi=5.0 * OMEGA_Q, omega=OMEGA_Q, detuning=detuning * OMEGA_Q)
    h = sparse_pulse_hamiltonian(p, dim)[2]
    u_half, _, _ = motion._banded_expm(0.5 * p.pi_time * h, -1j)
    for u in (u_half, motion._square(u_half, 0.0)[0]):
        spin, dropped = sparse_to_spin(u)
        spans, blocks = csr_slabs(spin)
        (got_spans, got_blocks), width, got_dropped = motion._spin_slabs(u, 0)
        assert np.array_equal(got_spans, spans)
        for got, block in zip(got_blocks, blocks, strict=True):
            assert got.shape == block.shape
            assert np.max(np.abs(got - block)) <= 1e-15
        assert sum(np.count_nonzero(block) for block in got_blocks) == spin.nnz
        assert width == level_band_width(spin)
        np.testing.assert_allclose(got_dropped, dropped, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize(
    "fock, nbar, n_waits",
    [
        # one state: groups of 32 waits, the last of 13
        (30, 0.0, 45),
        # five states (nbar 0.15 to 1 - 1e-4): groups of 6 waits, the last of 2
        (None, 0.15, 20),
    ],
)
def test_grouped_waits_equal_one_wait_at_a_time(monkeypatch, fock, nbar, n_waits):
    # the first basis holds every state, so the scan runs once
    p = motion.SpinMotionParams(eta=0.05, rabi=5.0 * OMEGA_Q, omega=OMEGA_Q, nbar=nbar, fock_cutoff=80)
    t_wait = np.linspace(0.3, 1.4, n_waits)
    columns, opened = [], []
    apply, open_ = motion._apply, motion._open

    def recording_apply(slabs, psi, *args, **kwargs):
        columns.append(psi.shape[1])
        return apply(slabs, psi, *args, **kwargs)

    def recording_open(half, down, *args, **kwargs):
        opened.append(down.size)
        return open_(half, down, *args, **kwargs)

    monkeypatch.setattr(motion, "_apply", recording_apply)
    monkeypatch.setattr(motion, "_open", recording_open)
    grouped = motion.quantum_cpmg_scan(p, 3, t_wait, initial_fock=fock)
    states = opened[0]
    group = motion._SLAB_ROWS // states
    sizes = [min(group, n_waits - start) for start in range(0, n_waits, group)]
    assert sizes[-1] < group
    # each group's first pi/2-pulse is a gather, then its waits go together through every other pulse
    assert opened == [states] * len(sizes)
    assert columns == [states * size for size in sizes for _ in range(4)]
    one_at_a_time = [motion.quantum_cpmg_scan(p, 3, [tw], initial_fock=fock) for tw in t_wait]
    single = np.concatenate([result.excitation for result in one_at_a_time])
    assert np.max(np.abs(grouped.excitation - single)) <= 1e-13
    assert grouped.max_leak == pytest.approx(max(result.max_leak for result in one_at_a_time), rel=1e-6, abs=1e-30)


def test_a_high_fock_level_scans_from_a_raised_first_level(monkeypatch):
    # Fock 500 at cutoff 560: the basis starts in whole slabs 64 levels below it and ends at the cutoff
    p = motion.SpinMotionParams(eta=0.01, rabi=5.0 * OMEGA_Q, omega=OMEGA_Q, fock_cutoff=560)
    t_wait = np.linspace(0.55, 2.2, 6)
    raised = motion.quantum_cpmg_scan(p, 10, t_wait, initial_fock=500)
    assert (raised.first_level, raised.levels) == (432, p.fock_cutoff + 1 - 432)
    assert raised.record()["first_level"] == 432
    full = full_basis_scan(monkeypatch, p, 10, t_wait, 500)
    assert (full.first_level, full.levels) == (0, p.fock_cutoff + 1)
    assert np.max(np.abs(raised.excitation - full.excitation)) <= 1e-12
    # 16 levels below Fock 500 pass the check before the first pulse, but a window comes within one
    # band width and one slab of the bottom, so the basis grows down by its size
    monkeypatch.setattr(motion, "_REACH", 16)
    lowered = motion.quantum_cpmg_scan(p, 10, t_wait, initial_fock=500)
    assert lowered.first_level < 484
    assert lowered.first_level % motion._SLAB_LEVELS == 0
    assert np.max(np.abs(lowered.excitation - full.excitation)) <= 1e-12
