"""Acceptance suite: one test per numbered criterion.

Each test prints a PASS line with the measured figures once its
assertions hold (visible with ``pytest -s``), and asserts the stated
runtime budget for the heavy computations it performs.
"""

import json
import time

import numpy as np
import pytest

from conftest import bell_state, ghz_state, small_trap
from ionstring import chain, cli, coupling, dynamics, entanglement, motion, sequences, stochastics
from ionstring.constants import omega_from_hz, wavevector


def report(number, message):
    print(f"\nACCEPTANCE {number} PASS: {message}")


def test_criterion_1_chain_span():
    start = time.perf_counter()
    spans = {}
    for f_hz, target in ((127e3, 246e-6), (112e3, 269e-6)):
        trap = small_trap(51, omega_z_hz=f_hz)
        span = chain.chain_span(chain.equilibrium_positions(trap))
        assert abs(span - target) <= 0.03 * target
        spans[f_hz] = span
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        1,
        f"span {spans[127e3] * 1e6:.1f} um @127 kHz (246 +- 3%), "
        f"{spans[112e3] * 1e6:.1f} um @112 kHz (269 +- 3%), {elapsed:.2f} s",
    )


def test_criterion_2_two_ion_oracles():
    start = time.perf_counter()
    trap = small_trap(2)
    positions = chain.equilibrium_positions(trap)
    expected = 0.5 ** (2.0 / 3.0) * trap.length_scale
    assert np.max(np.abs(positions - [-expected, expected])) < 1e-8 * trap.length_scale

    axial = chain.normal_modes(trap, positions, chain.AXIAL)
    assert abs(axial.frequencies[1] - np.sqrt(3.0) * trap.omega_z) < 1e-8 * trap.omega_z

    j_coupling = 150.0
    j = np.array([[0.0, j_coupling], [j_coupling, 0.0]])
    spec = dynamics.HamiltonianSpec(
        coupling.CouplingMatrix(j=j, field_b=0.0), dynamics.ISING_TRANSVERSE
    )
    psi = dynamics.neel_state(2)
    for t in np.linspace(1e-4, 4e-3, 7):
        sz = dynamics.magnetization(dynamics.evolve(psi, spec, float(t)))[0]
        assert abs(sz - np.cos(2.0 * j_coupling * t)) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"positions, stretch mode, and cos(2Jt) all within 1e-8, {elapsed:.2f} s")


def test_criterion_3_filter_function_goldens():
    start = time.perf_counter()
    tau = 0.02
    seq2 = sequences.cpmg(2, tau)
    golden = 2.0 * tau / (np.pi * np.sqrt(2.0 * np.pi))
    assert abs(abs(sequences.filter_function(seq2, 1.0 / tau)) - golden) < 1e-10

    zero_count = 0
    for n_pulses in (2, 6, 10):
        seq = sequences.cpmg(n_pulses, tau)
        for k in range(1, 4 * n_pulses):
            if (2 * k) % n_pulses == 0 and (2 * k // n_pulses) % 2 == 1:
                continue
            assert abs(sequences.filter_function(seq, k / tau)) < 1e-12 * tau
            zero_count += 1

    # peak location: exact on the line-harmonic comb the sequences probe,
    # and within 2% in the continuum for the longer trains
    for n_pulses in (2, 6, 10):
        seq = sequences.cpmg(n_pulses, tau)
        nominal = n_pulses / (2.0 * tau)
        comb = np.arange(1, 6 * n_pulses) / tau
        best = comb[np.argmax(np.abs(sequences.filter_function(seq, comb)))]
        assert abs(best - nominal) <= 0.02 * nominal
    for n_pulses in (6, 10):
        seq = sequences.cpmg(n_pulses, tau)
        nominal = n_pulses / (2.0 * tau)
        grid = np.linspace(0.8 * nominal, 1.2 * nominal, 8001)
        peak = grid[np.argmax(np.abs(sequences.filter_function(seq, grid)))]
        assert abs(peak - nominal) <= 0.02 * nominal
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, f"golden amplitude, {zero_count} suppression zeros, peak positions, {elapsed:.2f} s")


def test_criterion_4_table_i_roundtrip():
    start = time.perf_counter()
    components = [
        sequences.NoiseComponent.from_field(50.0, 37.2, 0.4),
        sequences.NoiseComponent.from_field(150.0, 9.3, 1.9),
        sequences.NoiseComponent.from_field(250.0, 23.3, -1.1),
    ]
    result = sequences.compensate(components, seed=5, max_rounds=2, shots=100)

    truth = {c.frequency_hz: c.amplitude for c in components}
    recovered = {
        e.frequency_hz: e.result.amplitude
        for e in result.sense_log
        if e.round_index == 0
    }
    amp_errors = {}
    for f_hz, amplitude in truth.items():
        error = abs(recovered[f_hz] - amplitude) / amplitude
        assert error < 0.05
        amp_errors[f_hz] = error

    reductions = result.reduction_factors(components)
    for f_hz, factor in reductions.items():
        assert factor <= 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        4,
        "amplitude errors "
        + ", ".join(f"{f:.0f} Hz: {e * 100:.2f}%" for f, e in sorted(amp_errors.items()))
        + "; residuals "
        + ", ".join(f"{f:.0f} Hz: {r * 100:.2f}%" for f, r in sorted(reductions.items()))
        + f"; {elapsed:.1f} s",
    )


def test_criterion_5_semiclassical_identities():
    start = time.perf_counter()
    grid = np.linspace(0.0, 4.0 * np.pi, 1000)
    for n_pulses in (1, 2, 5, 10, 20):
        coeff = motion.phase_coefficients(n_pulses, grid)
        assert np.max(np.abs(coeff.c2 - coeff.c2_closed)) < 1e-9
        peak = motion.phase_coefficients(n_pulses, np.pi).c2_closed
        np.testing.assert_allclose(peak, 4.0 * (n_pulses + 1) ** 2, rtol=1e-12)

    from test_motion import unitary_chain_excitation

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n_pulses = int(rng.integers(1, 25))
        omega = rng.uniform(0.5, 3.0)
        t_wait = rng.uniform(0.1, 6.0)
        k_z = rng.uniform(0.0, 2.0)
        amplitude = rng.uniform(0.0, 2.0)
        t_start = rng.uniform(-5.0, 5.0)
        model = motion.trajectory_excitation(
            n_pulses, omega, t_wait, k_z, amplitude, t_start
        )
        oracle = unitary_chain_excitation(
            n_pulses, omega, t_wait, k_z, amplitude, t_start
        )
        worst = max(worst, abs(model - oracle))
    assert worst < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, f"closed-form grids, exact peaks, oracle deviation {worst:.1e}, {elapsed:.1f} s")


def test_criterion_6_quantum_vs_semiclassical():
    start = time.perf_counter()
    nbar, n_pulses = 100.0, 20
    omega = 2.0 * np.pi
    target = 0.3
    exponent = -np.log(1.0 - 2.0 * target)
    eta = np.sqrt(exponent / (4.0 * (nbar + 0.5) * (n_pulses + 1) ** 2))
    params = motion.SpinMotionParams(
        eta=eta, rabi=50.0 * omega, omega=omega, nbar=nbar, fock_cutoff=700
    )
    scan = motion.quantum_cpmg_scan(params, n_pulses, np.linspace(0.47, 0.55, 9))
    peak = float(scan.excitation.max())
    agreement = abs(peak - target) / target
    assert agreement < 0.10
    assert scan.max_leak < 1e-6
    assert scan.max_norm_error < 1e-8

    fig11 = motion.SpinMotionParams(
        eta=0.01, rabi=omega, omega=omega, nbar=50.0, fock_cutoff=300
    )
    peak_scan = motion.quantum_cpmg_scan(fig11, 10, np.linspace(0.94, 1.06, 7))
    floor_scan = motion.quantum_cpmg_scan(fig11, 10, np.array([0.70, 0.76, 1.24, 1.30]))
    ratio = peak_scan.excitation.max() / floor_scan.excitation.mean()
    assert ratio > 5.0
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        6,
        f"main-peak {peak:.4f} vs semiclassical {target} ({agreement * 100:.1f}%), "
        f"intermediate peak/floor {ratio:.1f}x, {elapsed:.0f} s at cutoff 700",
    )


def test_criterion_7_entanglement_goldens():
    start = time.perf_counter()
    bell = np.outer(bell_state(), bell_state().conj())
    assert abs(entanglement.log_negativity_2(bell).value - 1.0) < 1e-9

    product = np.kron([1, 0], [0.6, 0.8]).astype(complex)
    rho_prod = entanglement.reduced_density_matrix(product, (1, 2))
    assert entanglement.log_negativity_2(rho_prod).value < 1e-9

    phi = bell
    for p in np.linspace(0.0, 1.0, 21):
        werner = p * phi + (1.0 - p) * np.eye(4) / 4.0
        expected = np.log2(1.0 + max(0.0, (3.0 * p - 1.0) / 2.0))
        assert abs(entanglement.log_negativity_2(werner).value - expected) < 1e-9

    ghz = entanglement.reduced_density_matrix(ghz_state(), (1, 2, 3))
    assert abs(entanglement.log_negativity_3(ghz).value - 1.0) < 1e-8

    estimate = entanglement.simulate_tomography(bell_state(), (1, 2), 500, seed=7)
    tomo_value = entanglement.log_negativity_2(estimate).value
    assert abs(tomo_value - 1.0) < 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        7,
        f"Bell/product/Werner/GHZ goldens, tomographic LN2 {tomo_value:.3f}, {elapsed:.1f} s",
    )


def _eight_ion_xy_coupling():
    trap = small_trap(8)
    positions = chain.equilibrium_positions(trap)
    k = wavevector(729e-9)
    spectra = [
        chain.lamb_dicke(chain.normal_modes(trap, positions, d), k)
        for d in (chain.RADIAL_X, chain.RADIAL_Y)
    ]
    beatnote = max(s.frequencies[-1] for s in spectra) + omega_from_hz(100e3)
    drive = coupling.DriveParameters(
        rabi=omega_from_hz(50e3),
        centerline_detuning=0.0,
        mode_detunings=coupling.detunings_from_beatnote(spectra, beatnote),
    )
    mat = coupling.spin_spin_matrix(spectra, drive)
    scale = 240.0 / np.max(np.abs(mat.j))
    return coupling.CouplingMatrix(j=mat.j * scale, field_b=0.0)


def test_criterion_8_quench_properties():
    start = time.perf_counter()
    mat = _eight_ion_xy_coupling()
    j_max = float(np.max(np.abs(mat.j)))
    xy = dynamics.HamiltonianSpec(mat, dynamics.XY_EFFECTIVE)
    psi = dynamics.neel_state(8)
    times = np.linspace(0.0, 3.0e-3, 13)[1:]

    states = list(dynamics.evolve_grid(psi, xy, times))
    for state in states:
        assert abs(dynamics.total_magnetization(state)) < 1e-9

    delta = 50.0 * j_max
    ising = dynamics.HamiltonianSpec(
        coupling.CouplingMatrix(j=mat.j, field_b=0.5 * delta),
        dynamics.ISING_TRANSVERSE,
    )
    discrepancy = 0.0
    for state_ising, state in zip(dynamics.evolve_grid(psi, ising, times), states):
        mags_ising = dynamics.magnetization(state_ising)
        discrepancy = max(
            discrepancy, float(np.max(np.abs(mags_ising - dynamics.magnetization(state))))
        )
    assert discrepancy < 0.05

    best_time, best_value = None, -1.0
    for t, state in zip(times, states):
        pair_values = [
            entanglement.log_negativity_2(
                entanglement.reduced_density_matrix(state, (i, i + 1))
            ).value
            for i in range(1, 8)
        ]
        weakest = min(pair_values)
        if weakest > best_value:
            best_time, best_value = t, weakest
    assert best_value > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        8,
        f"XY magnetization conserved, Ising->XY discrepancy {discrepancy:.3f} "
        f"at delta/maxJ=50, weakest adjacent-pair LN2 {best_value:.3f} at "
        f"t={best_time * 1e3:.2f} ms, {elapsed:.0f} s",
    )


def test_criterion_9_stochastics_roundtrips():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    omega = 2 * np.pi * np.concatenate([np.geomspace(30e3, 500e3, 8)] * 3)
    counts = np.concatenate([np.ones(8), 28 * np.ones(8), 50 * np.ones(8)])
    truth = 3e12 * omega ** (-1.9) * counts
    rates = np.abs(truth * (1.0 + 0.1 * rng.normal(size=omega.size)))
    fit = stochastics.fit_heating(
        stochastics.HeatingDataset(
            omega_z=omega, ion_count=counts, rate=rates, sigma=0.1 * truth
        )
    )
    assert abs(fit.exponent - 1.9) <= fit.exponent_sigma

    model = stochastics.CollisionModel(melt_rate=1.0 / 29.2)
    curve = stochastics.simulate_survival(model, 60.0, 10000, seed=4)
    lifetime = stochastics.fit_lifetime(curve)
    assert abs(lifetime.tau - 29.2) / 29.2 < 0.05

    hits = {"random_walk": 0, "slow_drift": 0}
    for seed in range(100):
        series = stochastics.simulate_phase_noise(
            stochastics.RANDOM_WALK, 6.67, 2e-3, 30000, seed=seed
        )
        corr = stochastics.phase_correlations(series, 2e-3, 100)
        if stochastics.select_decay_model(corr).kind == stochastics.EXPONENTIAL:
            hits["random_walk"] += 1
        series = stochastics.simulate_phase_noise(
            stochastics.SLOW_DRIFT, 4.0, 1e-3, 20000, seed=seed
        )
        corr = stochastics.phase_correlations(series, 1e-3, 40)
        if stochastics.select_decay_model(corr).kind == stochastics.GAUSSIAN:
            hits["slow_drift"] += 1
    assert hits["random_walk"] >= 95
    assert hits["slow_drift"] >= 95
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        9,
        f"alpha {fit.exponent:.3f} +- {fit.exponent_sigma:.3f}, tau {lifetime.tau:.2f} s, "
        f"selection {hits['random_walk']}/100 and {hits['slow_drift']}/100, {elapsed:.0f} s",
    )


def test_criterion_10_determinism(tmp_path):
    configs = [
        {
            "kind": "cpmg-sense",
            "seed": 7,
            "params": {
                "components": [{"f_hz": 50.0, "b_microgauss": 37.2, "phase_rad": 0.4}],
                "sequence": {"n_pulses": 2, "tau_s": 0.02},
                "shots": 100,
            },
        },
        {
            "kind": "compensate",
            "seed": 5,
            "params": {
                "components": [
                    {"f_hz": 50.0, "b_microgauss": 37.2, "phase_rad": 0.4},
                    {"f_hz": 150.0, "b_microgauss": 9.3, "phase_rad": 1.9},
                    {"f_hz": 250.0, "b_microgauss": 23.3, "phase_rad": -1.1},
                ]
            },
        },
        {
            "kind": "survival",
            "seed": 4,
            "params": {"trials": 2000, "horizon_s": 60.0},
        },
        {
            "kind": "ramsey-correlations",
            "seed": 9,
            "params": {"n_experiments": 5000, "max_lag_steps": 50},
        },
        {
            "kind": "heating-fit",
            "seed": 1,
            "params": {"synthetic": {}},
        },
        {
            "kind": "quench",
            "seed": 0,
            "params": {"n_ions": 6, "time_points": 7, "t_max_s": 1.5e-3},
        },
    ]
    checked = 0
    for index, config in enumerate(configs):
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"run{index}{attempt}.csv"
            summary = cli.run_experiment({**config, "out": str(out)})
            data = b"".join(
                (tmp_path / name.split("/")[-1]).read_bytes()
                for name in summary["outputs"]
            )
            blobs.append(data)
        assert blobs[0] == blobs[1], f"{config['kind']} output not byte-identical"
        checked += len(json.loads((tmp_path / f"run{index}b.csv.summary.json").read_text())["outputs"])
    report(10, f"{checked} output files byte-identical across repeated seeded runs")
