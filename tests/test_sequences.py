import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.optimize import least_squares

from ionstring import sequences as sq
from ionstring.errors import FitError

TAU = 0.02
SRC = Path(sq.__file__).resolve().parents[1]


def table_i_components():
    return [
        sq.NoiseComponent.from_field(50.0, 37.2, 0.4),
        sq.NoiseComponent.from_field(150.0, 9.3, 1.9),
        sq.NoiseComponent.from_field(250.0, 23.3, -1.1),
    ]


def test_cpmg_pulse_fractions():
    assert sq.cpmg(2, TAU).delta == (0.25, 0.75)
    assert sq.cpmg(10, TAU).delta[0] == pytest.approx(0.05)
    assert sq.cpmg(1, TAU).delta == (0.5,)


def test_pulse_sequence_validation():
    with pytest.raises(ValueError):
        sq.PulseSequence(delta=(0.5, 0.4), tau=TAU)
    with pytest.raises(ValueError):
        sq.PulseSequence(delta=(0.0,), tau=TAU)
    with pytest.raises(ValueError):
        sq.cpmg(2, 0.0)


def test_filter_golden_value():
    seq = sq.cpmg(2, TAU)
    expected = 2.0 * TAU / (np.pi * np.sqrt(2.0 * np.pi))
    assert abs(abs(sq.filter_function(seq, 1.0 / TAU)) - expected) < 1e-10


def test_filter_zero_frequency_limit_is_continuous():
    seq = sq.cpmg(4, TAU)
    inside = sq.filter_function(seq, 1e-7 / (2 * np.pi * TAU))
    outside = sq.filter_function(seq, 1e-5 / (2 * np.pi * TAU))
    assert abs(inside) < 1e-8
    assert abs(outside) < 1e-8
    assert abs(sq.filter_function(seq, 0.0)) < 1e-15


@pytest.mark.parametrize(
    "seq", [sq.ramsey(TAU), sq.cpmg(3, TAU), sq.PulseSequence(delta=(0.2, 0.3, 0.9), tau=TAU)],
    ids=["ramsey", "cpmg_3", "uneven"],
)
def test_filter_is_the_kick_sum_and_its_small_phase_series(seq):
    # above |w tau| = 1e-6 the filter is the kick sum over sqrt(2 pi) i w, bit for bit
    f = np.geomspace(1e-5, 1e3, 50) / TAU
    omega = 2.0 * np.pi * f
    kicks = sq.kick_sum(seq, omega * TAU)
    assert np.array_equal(sq.filter_function(seq, f), kicks / (np.sqrt(2.0 * np.pi) * 1j * omega))
    # below, its series against sum_p c_p p (e^(i x p) - 1) / (i x p), each kick expanded to third order
    x = np.array([0.0, 3e-7, 9.9e-7])
    positions = np.array([0.0, 1.0, *seq.delta])
    weights = np.array([1.0, (-1.0) ** (seq.n_pulses + 1), *(2.0 * (-1.0) ** np.arange(1, seq.n_pulses + 1))])
    z = 1j * np.outer(x, positions)
    oracle = TAU / np.sqrt(2.0 * np.pi) * ((1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0) @ (weights * positions))
    np.testing.assert_allclose(sq.filter_function(seq, x / (2.0 * np.pi * TAU)), oracle, rtol=1e-12, atol=1e-15 * TAU)


@pytest.mark.parametrize("n_pulses", [2, 6, 10])
def test_even_pulse_suppression_comb(n_pulses):
    seq = sq.cpmg(n_pulses, TAU)
    for k in range(1, 4 * n_pulses):
        f = k / TAU
        magnitude = abs(sq.filter_function(seq, f))
        if (2 * k) % n_pulses == 0 and (2 * k // n_pulses) % 2 == 1:
            assert magnitude > 1e-4 * TAU  # an odd multiple of the peak
        else:
            assert magnitude < 1e-12 * TAU


@pytest.mark.parametrize("n_pulses", [3, 5])
def test_odd_pulse_suppression_comb(n_pulses):
    seq = sq.cpmg(n_pulses, TAU)
    for k in range(0, 4 * n_pulses):
        f = k / TAU + 0.5 / TAU
        magnitude = abs(sq.filter_function(seq, f))
        odd = 2 * k + 1
        if odd % n_pulses == 0 and (odd // n_pulses) % 2 == 1:
            assert magnitude > 1e-4 * TAU
        else:
            assert magnitude < 1e-12 * TAU


@pytest.mark.parametrize("n_pulses", [2, 6, 10])
def test_filter_peak_on_line_harmonic_comb(n_pulses):
    """Among the line harmonics k/tau, the peak is at n_pulses/(2 tau)."""
    seq = sq.cpmg(n_pulses, TAU)
    comb = np.arange(1, 6 * n_pulses) / TAU
    magnitudes = np.abs(sq.filter_function(seq, comb))
    nominal = n_pulses / (2.0 * TAU)
    assert abs(comb[np.argmax(magnitudes)] - nominal) <= 0.02 * nominal


@pytest.mark.parametrize("n_pulses", [6, 10])
def test_filter_lobe_maximum_near_nominal(n_pulses):
    seq = sq.cpmg(n_pulses, TAU)
    nominal = n_pulses / (2.0 * TAU)
    grid = np.linspace(0.8 * nominal, 1.2 * nominal, 8001)
    peak = grid[np.argmax(np.abs(sq.filter_function(seq, grid)))]
    assert abs(peak - nominal) <= 0.02 * nominal


def test_response_trivials():
    seq = sq.cpmg(2, TAU)
    assert sq.multi_component_response([sq.NoiseComponent(50.0, 0.0)], 1.0, 0.123, seq) == 0.5
    assert sq.multi_component_response([sq.NoiseComponent(50.0, 500.0)], 0.0, 0.123, seq) == 0.5


def test_response_reaches_unity_at_quarter_wave():
    seq = sq.cpmg(2, TAU)
    gain = np.sqrt(2 * np.pi) * abs(sq.filter_function(seq, 50.0))
    amplitude = (np.pi / 2.0) / gain
    comp = sq.NoiseComponent(50.0, amplitude, 0.0)
    arg_f = np.angle(sq.filter_function(seq, 50.0))
    t_peak = (np.pi / 2.0 - arg_f) / (2.0 * np.pi * 50.0)
    np.testing.assert_allclose(
        sq.multi_component_response([comp], 1.0, t_peak, seq), 1.0, atol=1e-12
    )


def test_response_periodicity():
    seq = sq.cpmg(2, TAU)
    comp = sq.NoiseComponent(50.0, 321.0, 0.77)
    for t0 in (0.0, 0.0123, 0.5):
        a = sq.multi_component_response([comp], 0.8, t0, seq)
        b = sq.multi_component_response([comp], 0.8, t0 + 1.0 / 50.0, seq)
        np.testing.assert_allclose(a, b, atol=1e-12)


def ladder_sense_cost(t0, data, seq, frequency_hz, contrast_fixed=None):
    """Lowest cost of the multi-start fit that ``sq.sense`` replaced.

    Oracle for the grid start: 8 phase starts on each rung of an
    inner-amplitude ladder, plus a warm start carrying the running
    optimum from rung to rung (143 ``least_squares`` calls).
    """
    filt = sq.filter_function(seq, frequency_hz)
    gain = np.sqrt(2.0 * np.pi) * np.abs(filt)
    arg = np.angle(filt)
    w = 2.0 * np.pi * frequency_hz
    fit_contrast = contrast_fixed is None

    def residuals(params):
        c = params[2] if fit_contrast else contrast_fixed
        return 0.5 + 0.5 * c * np.sin(gain * params[0] * np.sin(w * t0 + params[1] + arg)) - data

    def jacobian(params):
        a, phi = params[0], params[1]
        c = params[2] if fit_contrast else contrast_fixed
        theta = w * t0 + phi + arg
        inner = gain * a * np.sin(theta)
        slope = 0.5 * c * gain * np.cos(inner)
        columns = [slope * np.sin(theta), slope * a * np.cos(theta)]
        if fit_contrast:
            columns.append(0.5 * np.sin(inner))
        return np.column_stack(columns)

    max_inner = 8.0 * np.pi
    contrast0 = min(1.0, max(0.1, np.ptp(data)))
    rungs = np.array([0.2, 0.5, 1.0, 1.5, 2.0, 2.6, 3.2, 4.0, 5.0, 6.5, 8.0, 10.0, 13.0, 16.0, 20.0, 25.0])
    lower = [0.0, -4.0 * np.pi, 0.0][: 3 if fit_contrast else 2]
    upper = [max_inner / gain, 4.0 * np.pi, 1.0][: 3 if fit_contrast else 2]
    best, warm = None, None
    for a0 in rungs[rungs <= max_inner] / gain:
        starts = [(a0, phi0, contrast0)[: len(lower)] for phi0 in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)]
        if warm is not None:
            starts.append(warm)
        for start in starts:
            res = least_squares(residuals, start, jac=jacobian, bounds=(lower, upper))
            if best is None or res.cost < best.cost:
                best = res
        warm = tuple(best.x)
    return best.cost


def test_sense_is_identity_on_noiseless_data():
    seq = sq.cpmg(2, TAU)
    comp = sq.NoiseComponent(50.0, 2 * np.pi * 104.0, 0.8)
    t0 = np.arange(41) / 41 / 50.0
    data = sq.simulate_scan(seq, [comp], 0.9, t0)
    fit = sq.sense(t0, data, seq, 50.0)
    assert abs(fit.amplitude - comp.amplitude) / comp.amplitude < 1e-6
    assert abs(fit.phase - comp.phase) < 1e-6
    assert abs(fit.contrast - 0.9) < 1e-6
    assert fit.amplitude_sigma >= 0.0


def test_sense_recovers_wrapped_amplitude_with_shot_noise():
    seq = sq.cpmg(2, TAU)
    comp = sq.NoiseComponent(50.0, 2 * np.pi * 104.0, 0.4)  # wraps: inner ~ 8.3 rad
    t0 = np.arange(41) / 41 / 50.0
    rng = np.random.default_rng(11)
    data = sq.simulate_scan(seq, [comp], 1.0, t0, shots=100, rng=rng)
    fit = sq.sense(t0, data, seq, 50.0)
    assert abs(fit.amplitude - comp.amplitude) / comp.amplitude < 0.05


def test_sense_recovers_low_contrast():
    seq = sq.cpmg(2, TAU)
    comp = sq.NoiseComponent(50.0, 2 * np.pi * 104.0, 0.4)
    t0 = np.arange(41) / 41 / 50.0
    rng = np.random.default_rng(1)
    data = sq.simulate_scan(seq, [comp], 0.25, t0, shots=100, rng=rng)
    fit = sq.sense(t0, data, seq, 50.0)
    assert abs(fit.contrast - 0.25) < 0.05


@pytest.mark.parametrize("contrast_fixed", [None, 0.9])
def test_sense_jacobian_matches_finite_differences(monkeypatch, contrast_fixed):
    seq = sq.cpmg(6, TAU)
    comp = sq.NoiseComponent(150.0, 2 * np.pi * 40.0, 1.9)
    t0 = np.arange(24) / 24 / 150.0
    data = sq.simulate_scan(seq, [comp], 0.9, t0)
    calls = []
    least_squares = sq.least_squares

    def recording(fun, x0, **kwargs):
        calls.append((fun, kwargs["jac"]))
        return least_squares(fun, x0, **kwargs)

    monkeypatch.setattr(sq, "least_squares", recording)
    sq.sense(t0, data, seq, 150.0, contrast_fixed=contrast_fixed)
    fun, jac = calls[0]
    for x in ([0.3, 0.7, 0.8], [2.0, -2.5, 0.4], [5.0, 4.0, 1.0]):
        x = np.array(x[: 2 if contrast_fixed else 3])
        step = 1e-6
        central = np.column_stack(
            [(fun(x + step * e) - fun(x - step * e)) / (2 * step) for e in np.eye(x.size)]
        )
        np.testing.assert_allclose(jac(x), central, rtol=1e-6, atol=1e-6)


def oracle_scans():
    """Ten seeded single-component scans, half within 1% of a zero of J_1.

    At a zero of J_1 the first harmonic of the scan carries no phase,
    so these test the phase candidates from harmonics 3 and 5.
    """
    rng = np.random.default_rng(2024)
    near_zeros = special.jn_zeros(1, 5) * (1.0 + rng.uniform(-0.01, 0.01, size=5))
    inner = np.concatenate([near_zeros, rng.uniform(0.05, 20.0, size=5)])
    for index, z in enumerate(inner):
        f = (50.0, 150.0, 250.0)[index % 3]
        seq = sq.sequence_for_frequency(f, TAU)
        gain = np.sqrt(2.0 * np.pi) * abs(sq.filter_function(seq, f))
        contrast = rng.uniform(0.3, 1.0)
        comp = sq.NoiseComponent(f, z / gain, rng.uniform(-np.pi, np.pi))
        t0 = np.arange(24) / 24 / f
        shots = (100, 1000)[index % 2]
        data = sq.simulate_scan(seq, [comp], contrast, t0, shots=shots, rng=rng)
        contrast_fixed = contrast if (index // 2) % 2 else None
        yield t0, data, seq, f, contrast_fixed


def test_grid_start_never_loses_to_the_ladder_oracle():
    scans = list(oracle_scans())
    assert {fixed is None for *_, fixed in scans} == {True, False}
    for t0, data, seq, f, contrast_fixed in scans:
        fit = sq.sense(t0, data, seq, f, contrast_fixed=contrast_fixed)
        oracle = ladder_sense_cost(t0, data, seq, f, contrast_fixed)
        assert fit.cost <= oracle + 1e-10, (f, contrast_fixed, fit.cost, oracle)
        np.testing.assert_allclose(fit.residual_rms, np.sqrt(2.0 * fit.cost / t0.size), rtol=1e-12)


@pytest.mark.parametrize("contrast_fixed", [None, 0.9])
def test_sense_makes_at_most_four_polishes(monkeypatch, caplog, contrast_fixed):
    seq = sq.cpmg(2, TAU)
    comp = sq.NoiseComponent(50.0, 2 * np.pi * 104.0, 0.4)
    t0 = np.arange(41) / 41 / 50.0
    data = sq.simulate_scan(seq, [comp], 0.9, t0, shots=100, rng=np.random.default_rng(3))
    results = []
    least_squares = sq.least_squares

    def recording(fun, x0, **kwargs):
        results.append(least_squares(fun, x0, **kwargs))
        return results[-1]

    monkeypatch.setattr(sq, "least_squares", recording)
    with caplog.at_level("DEBUG", logger="ionstring.sequences"):
        fit = sq.sense(t0, data, seq, 50.0, contrast_fixed=contrast_fixed)
    assert len(results) == sq.POLISHES == 4
    assert fit.nfev == sum(r.nfev for r in results)
    assert fit.cost == min(r.cost for r in results)
    assert sq.GRID_POINTS == 2000 * 18
    assert fit.record() == {
        "grid_points": sq.GRID_POINTS, "polishes": 4, "nfev": fit.nfev, "cost": fit.cost,
        "grid_truncation_bound": fit.grid_truncation_bound, "covariance_failed": False,
    }
    assert 0.0 < fit.grid_truncation_bound < 1e-14
    assert f"sense: {fit.record()}" in caplog.text


@pytest.mark.parametrize("contrast_fixed", [None, 0.9])
def test_sense_records_a_failed_covariance(monkeypatch, caplog, contrast_fixed):
    seq = sq.cpmg(2, TAU)
    t0 = np.arange(41) / 41 / 50.0
    data = sq.simulate_scan(seq, [sq.NoiseComponent(50.0, 2 * np.pi * 104.0, 0.4)], 0.9, t0)

    def unconverged(matrix):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", unconverged)
    with caplog.at_level("DEBUG", logger="ionstring.sequences"):
        fit = sq.sense(t0, data, seq, 50.0, contrast_fixed=contrast_fixed)
    assert fit.record()["covariance_failed"] is True
    assert np.isnan(fit.amplitude_sigma) and np.isnan(fit.phase_sigma)
    assert np.isnan(fit.contrast_sigma) if contrast_fixed is None else fit.contrast_sigma == 0.0
    assert abs(fit.amplitude - 2 * np.pi * 104.0) < 1e-6 * 2 * np.pi * 104.0  # the fit itself stands
    assert "'covariance_failed': True" in caplog.text


def test_first_sense_in_a_process_equals_the_second():
    # the first call imports scipy.optimize and builds the grid's Bessel table; neither may move the fit
    script = """
import dataclasses, sys
import numpy as np
from ionstring import sequences as sq
assert "scipy.optimize" not in sys.modules
seq = sq.cpmg(2, 0.02)
t0 = np.arange(41) / 41 / 50.0
data = sq.simulate_scan(seq, [sq.NoiseComponent(50.0, 2 * np.pi * 104.0, 0.4)], 0.9, t0, shots=100,
                        rng=np.random.default_rng(3))
first, second = (sq.sense(t0, data, seq, 50.0) for _ in range(2))
assert "scipy.optimize" in sys.modules
print(dataclasses.astuple(first) == dataclasses.astuple(second), first.nfev)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    same, nfev = done.stdout.split()
    assert same == "True" and int(nfev) >= sq.POLISHES


def brute_force_starts(t0, data, seq, frequency_hz, contrast_fixed):
    """The polish starts of ``sq.sense``'s grid, scored by one ``sin`` per grid and scan point."""
    filt = sq.filter_function(seq, frequency_hz)
    gain = np.sqrt(2.0 * np.pi) * np.abs(filt)
    theta = 2.0 * np.pi * frequency_hz * t0 + np.angle(filt)
    centred = data - data.mean()
    phases = np.concatenate([
        (np.angle(centred @ np.exp(-1j * m * theta)) + 0.5 * np.pi + np.pi * np.arange(2 * m)) / m for m in (1, 3, 5)
    ])
    z = 8.0 * np.pi * np.arange(1, 2001) / 2000
    y = data - 0.5
    carrier = np.sin(theta[None, :] + phases[:, None])
    contrast, cost = np.empty((2, z.size, phases.size))
    for row, amplitude in enumerate(z):
        s = np.sin(amplitude * carrier)
        ys, ss = s @ y, np.einsum("pn,pn->p", s, s)
        c = np.clip(2.0 * ys / ss, 0.0, 1.0) if contrast_fixed is None else contrast_fixed
        contrast[row], cost[row] = c, 0.5 * (y @ y - c * ys + 0.25 * c * c * ss)
    starts = []
    for flat in np.argsort(cost, axis=None, kind="stable")[: sq.POLISHES]:
        i, j = divmod(int(flat), phases.size)
        starts.append((z[i] / gain, phases[j], contrast[i, j]))
    return starts


@pytest.mark.parametrize("contrast_fixed", [None, 0.9])
@pytest.mark.parametrize("inner", [4.8, 20.0])
@pytest.mark.parametrize("spacing", ["uniform", "random"])
@pytest.mark.parametrize("points", [8, 41, 1000])
def test_sense_starts_match_a_brute_force_sin_grid(monkeypatch, points, spacing, inner, contrast_fixed):
    """The harmonic-domain grid picks the brute-force grid's starts, at a small and at a wrapped inner amplitude."""
    seq = sq.cpmg(6, TAU)
    gain = np.sqrt(2.0 * np.pi) * abs(sq.filter_function(seq, 150.0))
    comp = sq.NoiseComponent(150.0, inner / gain, -2.3)
    rng = np.random.default_rng(points)
    t0 = (np.arange(points) if spacing == "uniform" else rng.uniform(0.0, points, size=points)) / points / 150.0
    data = sq.simulate_scan(seq, [comp], 0.8, t0, shots=100, rng=rng)
    starts = []
    least_squares = sq.least_squares

    def recording(fun, x0, **kwargs):
        starts.append(x0)
        return least_squares(fun, x0, **kwargs)

    monkeypatch.setattr(sq, "least_squares", recording)
    sq.sense(t0, data, seq, 150.0, contrast_fixed=contrast_fixed)
    expected = brute_force_starts(t0, data, seq, 150.0, contrast_fixed)
    assert len(starts) == len(expected) == sq.POLISHES
    for start, (amplitude, phase, contrast) in zip(starts, expected):
        assert (start[0], start[1]) == (amplitude, phase)
        if contrast_fixed is None:
            assert abs(start[2] - contrast) <= 1e-12


def test_sense_rejects_flat_scan():
    seq = sq.cpmg(2, TAU)
    t0 = np.arange(16) / 16 / 50.0
    with pytest.raises(FitError, match="no modulation"):
        sq.sense(t0, np.full(16, 0.5), seq, 50.0)


def test_field_conversion_table_values():
    assert sq.amplitude_to_field(0.0) == 0.0
    np.testing.assert_allclose(
        sq.amplitude_to_field(2 * np.pi * 104.0), 37.2, rtol=0.004
    )
    np.testing.assert_allclose(
        sq.amplitude_to_field(2 * np.pi * 65.0), 23.3, rtol=0.004
    )
    roundtrip = sq.amplitude_to_field(sq.field_to_amplitude(9.3))
    np.testing.assert_allclose(roundtrip, 9.3, rtol=1e-12)


def test_compensate_exact_component_in_one_round():
    comps = [sq.NoiseComponent(50.0, 2 * np.pi * 104.0, 0.7)]
    result = sq.compensate(comps, seed=0, max_rounds=1, shots=None)
    assert result.residuals[0].amplitude < 1e-9 * comps[0].amplitude


def test_compensate_processes_high_frequencies_first():
    result = sq.compensate(table_i_components(), seed=1, max_rounds=2, shots=100)
    events = [(e.round_index, e.frequency_hz) for e in result.sense_log]
    for round_index in (0, 1):
        in_round = [f for r, f in events if r == round_index]
        assert in_round == [250.0, 150.0, 50.0]


def test_compensate_table_i_reduction():
    comps = table_i_components()
    result = sq.compensate(comps, seed=5, max_rounds=2, shots=100)
    for frequency, factor in result.reduction_factors(comps).items():
        assert factor <= 0.1, f"{frequency} Hz reduced only {1 / factor:.1f}-fold"


def test_compensate_drift_leaves_residual_floor():
    comps = [sq.NoiseComponent(50.0, 2 * np.pi * 104.0, 0.7)]
    result = sq.compensate(comps, seed=3, max_rounds=2, shots=None, phase_drift=0.05)
    assert result.residuals[0].amplitude > 1e-3 * comps[0].amplitude


def test_compensate_records_skipped_senses():
    # the 50 Hz sequence does not respond at 100 Hz, so its scan is flat
    comps = [sq.NoiseComponent(50.0, 0.0), sq.NoiseComponent(100.0, 2 * np.pi * 40.0, 1.9)]
    result = sq.compensate(comps, seed=0, max_rounds=2, shots=None)
    # a noiseless round also leaves nothing measurable at 100 Hz
    assert result.skipped == ((0, 50.0), (1, 100.0), (1, 50.0))
    assert [(e.round_index, e.frequency_hz) for e in result.sense_log] == [(0, 100.0)]


def test_waveform_samples_cancels_component():
    comps = [sq.NoiseComponent(50.0, 2 * np.pi * 104.0, 0.7)]
    result = sq.compensate(comps, seed=0, max_rounds=1, shots=None)
    applied = result.waveform[0]
    total = comps[0].amplitude * np.exp(1j * comps[0].phase) + applied.amplitude * np.exp(1j * applied.phase)
    assert abs(total) < 1e-6 * comps[0].amplitude


def ramsey_scenario(shots=400):
    residual = (
        sq.NoiseComponent.from_field(50.0, 1.3, 0.1),
        sq.NoiseComponent.from_field(150.0, 0.9, -0.5),
        sq.NoiseComponent.from_field(250.0, 0.7, 2.0),
    )
    return sq.RamseyScenario(
        uncompensated=tuple(table_i_components()),
        residual=residual,
        shots=shots,
    )


def test_ramsey_contrast_unity_without_noise():
    scenario = sq.RamseyScenario(uncompensated=(), residual=(), shots=4000)
    c = sq.ramsey_contrast(4.5e-3, scenario, sq.TRIGGER_AND_COMPENSATION, seed=1)
    assert abs(c - 1.0) < 0.02


def test_ramsey_contrast_scenario_ordering():
    scenario = ramsey_scenario()
    off = sq.ramsey_contrast(4.5e-3, scenario, sq.BOTH_OFF, seed=2)
    comp_only = sq.ramsey_contrast(4.5e-3, scenario, sq.COMPENSATION_ONLY, seed=2)
    assert off < comp_only - 0.3


def test_ramsey_trigger_and_compensation_indistinguishable():
    scenario = ramsey_scenario()
    comp_only = np.mean(
        [sq.ramsey_contrast(4.5e-3, scenario, sq.COMPENSATION_ONLY, seed=s) for s in range(4)]
    )
    both = np.mean(
        [sq.ramsey_contrast(4.5e-3, scenario, sq.TRIGGER_AND_COMPENSATION, seed=s) for s in range(4)]
    )
    assert abs(comp_only - both) < 0.05


def test_compensate_refuses_two_components_at_one_frequency():
    components = [sq.NoiseComponent.from_field(50.0, 30.0, 0.0), sq.NoiseComponent.from_field(50.0, 10.0, 1.0)]
    with pytest.raises(ValueError, match="two components at 50 Hz"):
        sq.compensate(components, seed=0, max_rounds=1)
