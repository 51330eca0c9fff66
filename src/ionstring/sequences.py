"""Pulse-sequence noise spectroscopy and feedforward compensation.

A train of instantaneous pi-pulses between two pi/2-pulses acts as a
narrowband filter for frequency modulation of the qubit transition.
The complex filter function of a sequence of ``n_pulses`` pulses at
fractional times ``delta_j`` within total duration ``tau`` is

    F(f) = [1 + (-1)^(Np+1) e^(i w tau)
             + 2 sum_j (-1)^j e^(i w tau delta_j)] / (sqrt(2 pi) i w)

with w = 2 pi f. A single sinusoidal modulation component of angular
amplitude A (rad/s), frequency f and phase phi then produces the
excitation

    P(t0) = 1/2 + C/2 sin( sqrt(2 pi) |F(f)| A
                            sin(2 pi f t0 + phi + arg F(f)) )

when the sequence start t0 is scanned against the line trigger. C is
an empirical contrast accounting for broadband noise. Sensing inverts
this relation by nonlinear least squares; compensation senses each
line harmonic, applies the opposite waveform, and iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from ionstring.constants import FIELD_SENSITIVITY_HZ_PER_UG
from ionstring.errors import FitError

_SMALL_PHASE = 1e-6


@dataclass(frozen=True)
class PulseSequence:
    """Timed pi-pulse train within total duration ``tau``.

    ``delta`` holds the fractional pulse times, strictly increasing in
    (0, 1); it may be empty (plain Ramsey). Pulses are instantaneous.
    """

    delta: tuple[float, ...]
    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        d = np.asarray(self.delta, dtype=float)
        if d.size and (np.any(d <= 0) or np.any(d >= 1) or np.any(np.diff(d) <= 0)):
            raise ValueError("pulse fractions must be strictly increasing in (0, 1)")

    @property
    def n_pulses(self) -> int:
        return len(self.delta)


def cpmg(n_pulses: int, tau: float) -> PulseSequence:
    """CPMG sequence: pulse j at fraction (j - 1/2) / n_pulses."""
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    delta = tuple((j - 0.5) / n_pulses for j in range(1, n_pulses + 1))
    return PulseSequence(delta=delta, tau=tau)


def ramsey(tau: float) -> PulseSequence:
    """Bare Ramsey sequence (no pi-pulses)."""
    return PulseSequence(delta=(), tau=tau)


def filter_function(seq: PulseSequence, f_hz):
    """Complex filter function at frequency f (Hz, scalar or array).

    Pi-pulses are treated as instantaneous. The f -> 0 limit is finite
    and evaluated by series expansion below |w tau| = 1e-6.
    """
    f = np.asarray(f_hz, dtype=float)
    scalar = f.ndim == 0
    f = np.atleast_1d(f)

    n_p = seq.n_pulses
    j = np.arange(1, n_p + 1)
    positions = np.concatenate(([0.0, 1.0], np.asarray(seq.delta)))
    coeffs = np.concatenate(([1.0, (-1.0) ** (n_p + 1)], 2.0 * (-1.0) ** j))

    omega = 2.0 * np.pi * f
    x = omega * seq.tau
    out = np.empty(f.shape, dtype=complex)

    big = np.abs(x) >= _SMALL_PHASE
    if np.any(big):
        phases = np.exp(1j * np.outer(x[big], positions))
        bracket = phases @ coeffs
        out[big] = bracket / (np.sqrt(2.0 * np.pi) * 1j * omega[big])
    if np.any(~big):
        # sum_p c_p pos_p^0 vanishes identically, so the series starts
        # at the linear moment
        moments = np.array([coeffs @ positions**k for k in range(1, 7)])
        xs = x[~big]
        series = np.zeros(xs.shape, dtype=complex)
        for k, m in enumerate(moments, start=1):
            series += (1j * xs) ** (k - 1) * m / math.factorial(k)
        out[~big] = seq.tau / np.sqrt(2.0 * np.pi) * series

    return out[0] if scalar else out


@dataclass(frozen=True)
class NoiseComponent:
    """One sinusoidal modulation of the qubit transition frequency."""

    frequency_hz: float
    amplitude: float  # angular-frequency modulation depth, rad/s
    phase: float = 0.0

    def __post_init__(self):
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")

    @classmethod
    def from_field(cls, frequency_hz: float, field_ug: float, phase: float = 0.0):
        """Component from a magnetic-field amplitude in microgauss."""
        return cls(frequency_hz=frequency_hz, amplitude=field_to_amplitude(field_ug), phase=phase)

    @property
    def field_ug(self) -> float:
        return amplitude_to_field(self.amplitude)


def amplitude_to_field(amplitude: float) -> float:
    """Magnetic field in microgauss for a qubit-shift amplitude in rad/s."""
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    return amplitude / (2.0 * np.pi) / FIELD_SENSITIVITY_HZ_PER_UG


def field_to_amplitude(field_ug: float) -> float:
    """Qubit-shift amplitude in rad/s for a field amplitude in microgauss."""
    return 2.0 * np.pi * FIELD_SENSITIVITY_HZ_PER_UG * field_ug


def accumulated_phase(seq: PulseSequence, components, t0):
    """Sequence-accumulated phase from all components at start time t0."""
    t0 = np.asarray(t0, dtype=float)
    total = np.zeros(t0.shape)
    for comp in components:
        filt = filter_function(seq, comp.frequency_hz)
        total = total + (
            np.sqrt(2.0 * np.pi)
            * np.abs(filt)
            * comp.amplitude
            * np.sin(2.0 * np.pi * comp.frequency_hz * t0 + comp.phase + np.angle(filt))
        )
    return total


def multi_component_response(components, contrast: float, t0, seq: PulseSequence):
    """Excitation when several components modulate the qubit at once."""
    if not 0.0 <= contrast <= 1.0:
        raise ValueError("contrast must lie in [0, 1]")
    return 0.5 + 0.5 * contrast * np.sin(accumulated_phase(seq, components, t0))


def simulate_scan(
    seq: PulseSequence,
    components,
    contrast: float,
    t0_values: np.ndarray,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
):
    """Synthetic t0 scan, optionally with binomial shot noise."""
    p = multi_component_response(components, contrast, np.asarray(t0_values), seq)
    if shots is None:
        return p
    if rng is None:
        raise ValueError("shot noise requires an explicit rng")
    return rng.binomial(shots, p) / shots


@dataclass(frozen=True)
class SenseResult:
    """Fitted modulation parameters with 1-sigma uncertainties."""

    amplitude: float
    amplitude_sigma: float
    phase: float
    phase_sigma: float
    contrast: float
    contrast_sigma: float
    residual_rms: float


def sense(
    t0_values: np.ndarray,
    p_up: np.ndarray,
    seq: PulseSequence,
    frequency_hz: float,
    max_inner_amplitude: float = 8.0 * np.pi,
    contrast_fixed: float | None = None,
) -> SenseResult:
    """Fit amplitude, phase, and contrast of one modulation component.

    Runs damped least squares from a grid of phase starts (8) and an
    ascending amplitude-continuation ladder, which handles signals
    whose inner phase amplitude wraps beyond pi/2. ``t0_values`` should
    span one period of the probed frequency with at least 8 points.

    In the small-signal regime only the product of contrast and
    amplitude is identifiable; pass ``contrast_fixed`` when the
    contrast is known from a previous large-signal fit (the
    compensation loop does this) to keep the amplitude well
    determined.

    Raises
    ------
    FitError
        For degenerate (constant) scans: "no modulation detected".
    """
    t0 = np.asarray(t0_values, dtype=float)
    data = np.asarray(p_up, dtype=float)
    if t0.size < 8:
        raise ValueError("need at least 8 scan points")
    if np.ptp(data) < 1e-9:
        raise FitError("no modulation detected")

    filt = filter_function(seq, frequency_hz)
    gain = np.sqrt(2.0 * np.pi) * np.abs(filt)
    if gain == 0:
        raise FitError(f"sequence has zero response at {frequency_hz} Hz")
    arg = np.angle(filt)
    w = 2.0 * np.pi * frequency_hz
    fit_contrast = contrast_fixed is None

    def model(params, t):
        a, phi = params[0], params[1]
        c = params[2] if fit_contrast else contrast_fixed
        return 0.5 + 0.5 * c * np.sin(gain * a * np.sin(w * t + phi + arg))

    def residuals(params):
        return model(params, t0) - data

    def jacobian(params):
        a, phi = params[0], params[1]
        c = params[2] if fit_contrast else contrast_fixed
        theta = w * t0 + phi + arg
        s = np.sin(theta)
        inner = gain * a * s
        slope = 0.5 * c * gain * np.cos(inner)
        columns = [slope * s, slope * a * np.cos(theta)]
        if fit_contrast:
            columns.append(0.5 * np.sin(inner))
        return np.column_stack(columns)

    contrast0 = min(1.0, max(0.1, np.ptp(data)))
    inner_targets = np.array(
        [0.2, 0.5, 1.0, 1.5, 2.0, 2.6, 3.2, 4.0, 5.0, 6.5, 8.0, 10.0, 13.0, 16.0, 20.0, 25.0]
    )
    inner_targets = inner_targets[inner_targets <= max_inner_amplitude]
    phase_starts = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    if fit_contrast:
        lower = [0.0, -4.0 * np.pi, 0.0]
        upper = [max_inner_amplitude / gain, 4.0 * np.pi, 1.0]
    else:
        lower = [0.0, -4.0 * np.pi]
        upper = [max_inner_amplitude / gain, 4.0 * np.pi]

    best = None
    warm = None
    for a0 in inner_targets / gain:
        starts = [
            (a0, phi0, contrast0)[: len(lower)] for phi0 in phase_starts
        ]
        if warm is not None:
            starts.append(warm)
        for start in starts:
            try:
                res = least_squares(residuals, start, jac=jacobian, bounds=(lower, upper))
            except ValueError:
                continue
            if best is None or res.cost < best.cost:
                best = res
        if best is not None:
            warm = tuple(best.x)  # continuation: carry the running optimum

    if best is None:
        raise FitError("all fit starts failed")

    a, phi = best.x[0], best.x[1]
    c = best.x[2] if fit_contrast else contrast_fixed
    phi = np.angle(np.exp(1j * phi))  # wrap to (-pi, pi]
    dof = max(1, t0.size - len(best.x))
    variance = 2.0 * best.cost / dof
    jac = best.jac
    try:
        cov = variance * np.linalg.pinv(jac.T @ jac)
        sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        sigmas = np.full(len(best.x), np.nan)
    return SenseResult(
        amplitude=float(a),
        amplitude_sigma=float(sigmas[0]),
        phase=float(phi),
        phase_sigma=float(sigmas[1]),
        contrast=float(c),
        contrast_sigma=float(sigmas[2]) if fit_contrast else 0.0,
        residual_rms=float(np.sqrt(np.mean(residuals(best.x) ** 2))),
    )


def sequence_for_frequency(frequency_hz: float, tau: float = 0.02) -> PulseSequence:
    """CPMG sequence whose main filter peak sits at the given frequency.

    The peak of an n-pulse sequence lies near n / (2 tau), so
    n = round(2 tau f); with tau = 20 ms this maps 50/150/250 Hz to
    2/6/10 pulses.
    """
    n_pulses = max(1, round(2.0 * tau * frequency_hz))
    return cpmg(n_pulses, tau)


@dataclass(frozen=True)
class SenseEvent:
    """One sensing step inside the compensation loop."""

    round_index: int
    frequency_hz: float
    result: SenseResult


@dataclass(frozen=True)
class CompensationResult:
    """Outcome of the feedforward loop.

    ``residuals`` are the true leftover components after applying the
    feedforward ``waveform`` (both per frequency, ascending).
    ``sense_log`` records the order in which frequencies were fitted.
    """

    residuals: tuple[NoiseComponent, ...]
    waveform: tuple[NoiseComponent, ...]
    sense_log: tuple[SenseEvent, ...]
    rounds_used: int

    def reduction_factors(self, inputs) -> dict[float, float]:
        """Residual/input amplitude ratio per frequency."""
        inp = {c.frequency_hz: c.amplitude for c in inputs}
        return {
            r.frequency_hz: (r.amplitude / inp[r.frequency_hz] if inp[r.frequency_hz] else 0.0)
            for r in self.residuals
        }


def _phasor(component: NoiseComponent) -> complex:
    return component.amplitude * np.exp(1j * component.phase)


def _component(frequency_hz: float, phasor: complex) -> NoiseComponent:
    return NoiseComponent(
        frequency_hz=frequency_hz,
        amplitude=float(np.abs(phasor)),
        phase=float(np.angle(phasor)) if np.abs(phasor) > 0 else 0.0,
    )


def compensate(
    components,
    seed: int | None = None,
    max_rounds: int = 2,
    shots: int | None = 100,
    scan_points: int = 41,
    tau: float = 0.02,
    contrast: float = 1.0,
    phase_drift: float = 0.0,
) -> CompensationResult:
    """Sense-fit-apply feedforward loop over the given components.

    Components are processed in descending frequency order within each
    round, because a low-frequency sequence also responds at the odd
    harmonics of its filter peak: the high harmonics must be cleaned
    out before the fundamental can be fitted without bias. Sensing
    scans one period of each component with ``scan_points`` points and
    ``shots`` binomial samples per point (``None`` = noiseless).

    ``phase_drift`` (rad) applies a random phase kick to every true
    component between rounds, modelling slow drifts that put a floor on
    the achievable residual. After ``max_rounds`` the loop reports the
    best residuals reached; it never raises for lack of convergence.
    """
    components = sorted(components, key=lambda c: c.frequency_hz)
    rng = np.random.default_rng(seed)
    true = {c.frequency_hz: _phasor(c) for c in components}
    applied = {c.frequency_hz: 0.0 + 0.0j for c in components}
    log: list[SenseEvent] = []

    for round_index in range(max_rounds):
        if round_index > 0 and phase_drift > 0.0:
            for f in true:
                true[f] *= np.exp(1j * rng.normal(0.0, phase_drift))
        for f in sorted(true, reverse=True):
            seq = sequence_for_frequency(f, tau)
            current = [
                _component(g, true[g] + applied[g])
                for g in true
                if np.abs(true[g] + applied[g]) > 0.0
            ]
            t0 = np.arange(scan_points) / scan_points / f
            data = simulate_scan(seq, current, contrast, t0, shots=shots, rng=rng)
            try:
                # the scenario contrast is known here, as it would be
                # from the first large-amplitude fit in the lab
                fit = sense(t0, data, seq, f, contrast_fixed=contrast)
            except FitError:
                continue  # nothing measurable left at this frequency
            log.append(SenseEvent(round_index=round_index, frequency_hz=f, result=fit))
            significant = (
                shots is None or fit.amplitude > 3.0 * fit.amplitude_sigma
            )
            if significant:
                applied[f] -= fit.amplitude * np.exp(1j * fit.phase)

    if phase_drift > 0.0:
        for f in true:
            true[f] *= np.exp(1j * rng.normal(0.0, phase_drift))

    residuals = tuple(_component(f, true[f] + applied[f]) for f in sorted(true))
    waveform = tuple(_component(f, applied[f]) for f in sorted(applied))
    return CompensationResult(
        residuals=residuals,
        waveform=waveform,
        sense_log=tuple(log),
        rounds_used=max_rounds,
    )


def waveform_samples(components, times) -> np.ndarray:
    """Sampled sum of sinusoids, e.g. for a feedforward generator."""
    times = np.asarray(times, dtype=float)
    out = np.zeros(times.shape)
    for c in components:
        out += c.amplitude * np.sin(2.0 * np.pi * c.frequency_hz * times + c.phase)
    return out


TRIGGER_AND_COMPENSATION = "trigger_on_comp_on"
COMPENSATION_ONLY = "comp_only"
BOTH_OFF = "both_off"
_SCENARIOS = (TRIGGER_AND_COMPENSATION, COMPENSATION_ONLY, BOTH_OFF)


@dataclass(frozen=True)
class RamseyScenario:
    """Noise environment for Ramsey-contrast comparisons.

    ``uncompensated`` holds the raw line-synchronous components,
    ``residual`` what is left after feedforward compensation.
    ``base_contrast`` models broadband noise unrelated to the line.
    """

    uncompensated: tuple[NoiseComponent, ...]
    residual: tuple[NoiseComponent, ...]
    base_contrast: float = 1.0
    line_frequency_hz: float = 50.0
    shots: int = 200
    phase_points: int = 24


def ramsey_contrast(
    probe_time: float,
    scenario: RamseyScenario,
    mode: str,
    seed: int | None = None,
) -> float:
    """Fringe contrast of a Ramsey experiment under line-noise scenarios.

    With the line trigger on, every shot starts at the same line phase;
    with it off, the start time is uniform over the line period, so any
    uncompensated component dephases the fringe. The analysis phase of
    the closing pulse is scanned and the contrast extracted by a linear
    sinusoid fit.
    """
    if mode not in _SCENARIOS:
        raise ValueError(f"mode must be one of {_SCENARIOS}")
    comps = scenario.uncompensated if mode == BOTH_OFF else scenario.residual
    triggered = mode == TRIGGER_AND_COMPENSATION
    seq = ramsey(probe_time)
    rng = np.random.default_rng(seed)
    period = 1.0 / scenario.line_frequency_hz

    thetas = np.linspace(0.0, 2.0 * np.pi, scenario.phase_points, endpoint=False)
    mean_p = np.empty(scenario.phase_points)
    for idx, theta in enumerate(thetas):
        if triggered:
            phase = accumulated_phase(seq, comps, 0.0)
            p = 0.5 + 0.5 * scenario.base_contrast * np.cos(theta - phase)
            mean_p[idx] = rng.binomial(scenario.shots, p) / scenario.shots
        else:
            t0 = rng.uniform(0.0, period, size=scenario.shots)
            phases = accumulated_phase(seq, comps, t0)
            p = 0.5 + 0.5 * scenario.base_contrast * np.cos(theta - phases)
            outcomes = rng.random(scenario.shots) < p
            mean_p[idx] = np.mean(outcomes)

    design = np.column_stack([np.ones_like(thetas), np.cos(thetas), np.sin(thetas)])
    coeff, *_ = np.linalg.lstsq(design, mean_p, rcond=None)
    return float(2.0 * np.hypot(coeff[1], coeff[2]))
