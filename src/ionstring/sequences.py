"""Pulse-sequence noise spectroscopy and feedforward compensation.

A train of instantaneous pi-pulses between two pi/2-pulses acts as a
narrowband filter for frequency modulation of the qubit transition.
The complex filter function of a sequence of ``n_pulses`` pulses at
fractional times ``delta_j`` within total duration ``tau`` is

    F(f) = [1 + (-1)^(Np+1) e^(i w tau)
             + 2 sum_j (-1)^j e^(i w tau delta_j)] / (sqrt(2 pi) i w)

with w = 2 pi f; the bracket is the sequence's ``kick_sum``. A single
sinusoidal modulation component of angular amplitude A (rad/s),
frequency f and phase phi then produces the excitation

    P(t0) = 1/2 + C/2 sin( sqrt(2 pi) |F(f)| A
                            sin(2 pi f t0 + phi + arg F(f)) )

when the sequence start t0 is scanned against the line trigger. C is
an empirical contrast accounting for broadband noise. Sensing inverts
this relation by least squares from the best points of one grid over
amplitude and phase, scored from the scan's harmonics by Jacobi-Anger
(DLMF 10.12.2-3) with one Bessel table, not point by point; compensation
senses each line harmonic, applies the opposite waveform, and iterates.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from ionstring.constants import FIELD_SENSITIVITY_HZ_PER_UG
from ionstring.dynamics import _bessel_table
from ionstring.errors import FitError

_SMALL_PHASE = 1e-6

_MAX_INNER_AMPLITUDE = 8.0 * np.pi
_GRID_AMPLITUDES = 2000
GRID_STEP = _MAX_INNER_AMPLITUDE / _GRID_AMPLITUDES  # rad: the grid's first, smallest inner amplitude
_HARMONICS = (1, 3, 5)
GRID_POINTS = _GRID_AMPLITUDES * sum(2 * m for m in _HARMONICS)
POLISHES = 4
MAX_PULSES = 10**4  # pi-pulses a sequence may have
_POLISH_TOL = 1e-12  # ftol, xtol and gtol: polish to the minimum, not near it

logger = logging.getLogger(__name__)


class _LeastSquares:
    """``scipy.optimize.least_squares``, imported on the first call.

    Only the sensing kinds fit, so no other run loads ``scipy.optimize``.
    It is an object, not a function, so that ``least_squares`` stays a
    module attribute from import on, for callers that wrap or replace it.
    """

    def __call__(self, *args, **kwargs):
        from scipy.optimize import least_squares

        return least_squares(*args, **kwargs)


least_squares = _LeastSquares()


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


def _kicks(seq: PulseSequence) -> tuple[np.ndarray, np.ndarray]:
    """Fractional times and weights of the kicks: 1, (-1)^(Np+1) at 0, 1 and 2 (-1)^j at delta_j."""
    weights = np.concatenate(([1.0, (-1.0) ** (seq.n_pulses + 1)], 2.0 * (-1.0) ** np.arange(1, seq.n_pulses + 1)))
    return np.concatenate(([0.0, 1.0], seq.delta)), weights


def kick_sum(seq: PulseSequence, x):
    """sum_p c_p e^(i x delta_p) over ``_kicks`` at x = w tau, scalar or array."""
    positions, weights = _kicks(seq)
    return np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float), positions)) @ weights


def filter_function(seq: PulseSequence, f_hz):
    """Complex filter function at frequency f (Hz, scalar or array), ``kick_sum`` / (sqrt(2 pi) i w).

    Pi-pulses are treated as instantaneous. The f -> 0 limit is finite
    and evaluated by series expansion below |w tau| = 1e-6.
    """
    f = np.asarray(f_hz, dtype=float)
    scalar = f.ndim == 0
    f = np.atleast_1d(f)

    omega = 2.0 * np.pi * f
    x = omega * seq.tau
    out = np.empty(f.shape, dtype=complex)

    big = np.abs(x) >= _SMALL_PHASE
    if np.any(big):
        out[big] = kick_sum(seq, x[big]) / (np.sqrt(2.0 * np.pi) * 1j * omega[big])
    if np.any(~big):
        # sum_p c_p pos_p^0 vanishes identically, so the series starts
        # at the linear moment: sum_k (i x)^(k-1) m_k / k!
        positions, weights = _kicks(seq)
        k = np.arange(1, 7)
        moments = weights @ positions[:, None] ** k / [math.factorial(n) for n in k]
        out[~big] = seq.tau / np.sqrt(2.0 * np.pi) * ((1j * x[~big, None]) ** (k - 1) @ moments)

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
    nfev: int  # function evaluations summed over the polishes
    cost: float  # half the residual sum of squares at the fit
    grid_truncation_bound: float  # error of the grid's s.y and s.s per unit of sum |y_n| or n
    covariance_failed: bool  # the covariance's pseudo-inverse failed, so the sigmas are NaN

    def record(self) -> dict:
        """The fit's diagnostics, as logged and summarised."""
        return {
            "grid_points": GRID_POINTS, "polishes": POLISHES, "nfev": self.nfev, "cost": self.cost,
            "grid_truncation_bound": self.grid_truncation_bound, "covariance_failed": self.covariance_failed,
        }


def sense(
    t0_values: np.ndarray,
    p_up: np.ndarray,
    seq: PulseSequence,
    frequency_hz: float,
    contrast_fixed: float | None = None,
) -> SenseResult:
    """Fit amplitude, phase, and contrast of one modulation component.

    A grid over the inner amplitude z = gain * A (2000 values up to 8 pi)
    and 18 phases phi read off harmonics 1, 3 and 5 of the scan picks the
    starts; at each grid point the contrast, in which the model is
    affine, is solved in closed form and clipped to [0, 1] (variable
    projection, Golub & Pereyra 1973), unless ``contrast_fixed`` holds
    it. That form needs only s.y and s.s, for y_n = p_n - 1/2 and
    s_n = sin(z sin(theta_n + phi)), which follow from the scan's
    harmonics Y_k = sum_n y_n e^(ik theta_n) and E_m = sum_n e^(im theta_n):

        s.y = 2 sum_(k odd) J_k(z) Im(e^(ik phi) Y_k),
        s.s = n/2 - [n J_0(2z) + 2 sum_(m even > 0) J_m(2z) Re(e^(im phi) E_m)] / 2.

    Both sums stop where one ``dynamics._bessel_table`` over z and 2z
    cuts its tail, which, as the record's ``grid_truncation_bound``,
    bounds their error per unit of sum |y_n| or n. Least squares with the
    analytic Jacobian polishes the 4 lowest grid points and the lowest
    cost wins. ``t0_values`` should span one period of the probed
    frequency with at least 8 points.

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
    theta = 2.0 * np.pi * frequency_hz * t0 + np.angle(filt)
    fit_contrast = contrast_fixed is None
    n = 3 if fit_contrast else 2  # free parameters: amplitude, phase and maybe contrast

    def residuals(params):
        c = params[2] if fit_contrast else contrast_fixed
        return 0.5 + 0.5 * c * np.sin(gain * params[0] * np.sin(theta + params[1])) - data

    def jacobian(params):
        a, phi = params[0], params[1]
        c = params[2] if fit_contrast else contrast_fixed
        s = np.sin(theta + phi)
        inner = gain * a * s
        slope = 0.5 * c * gain * np.cos(inner)
        return np.column_stack([slope * s, slope * a * np.cos(theta + phi), 0.5 * np.sin(inner)][:n])

    # By Jacobi-Anger, harmonic m of sin(z sin(theta + phi)) has phase
    # m phi - pi/2 modulo pi: 2m candidate phases, the higher harmonics
    # covering the zeros of J_1 where the first one is noise.
    centred = data - data.mean()
    phases = np.concatenate([
        (np.angle(centred @ np.exp(-1j * m * theta)) + 0.5 * np.pi + np.pi * np.arange(2 * m)) / m
        for m in _HARMONICS
    ])
    z, bessel, tail = _grid_table()
    y = data - 0.5
    k, m = np.arange(1, bessel.shape[1], 2), np.arange(0, bessel.shape[1], 2)
    odd = 2.0 * np.exp(1j * np.multiply.outer(k, theta)) @ y  # 2 Y_k
    even = np.exp(1j * np.multiply.outer(m, theta)).sum(axis=1) * np.where(m > 0, 1.0, 0.5)  # E_m, and E_0 / 2
    ys = bessel[:_GRID_AMPLITUDES, k] @ np.imag(np.exp(1j * np.multiply.outer(k, phases)) * odd[:, None])
    ss = 0.5 * t0.size - bessel[1::2, m] @ np.real(np.exp(1j * np.multiply.outer(m, phases)) * even[:, None])
    free = np.clip(np.divide(2.0 * ys, ss, out=np.zeros_like(ys), where=ss > 0), 0.0, 1.0)
    contrast = free if fit_contrast else np.full_like(ys, contrast_fixed)
    cost = 0.5 * (y @ y - contrast * ys + 0.25 * contrast * contrast * ss)

    bounds = ([0.0, -4.0 * np.pi, 0.0][:n], [_MAX_INNER_AMPLITUDE / gain, 4.0 * np.pi, 1.0][:n])
    fits = []
    # the POLISHES lowest costs, ties in index order, as a stable sort of all of them would give
    ranked = cost.ravel()
    lowest = np.flatnonzero(ranked <= np.partition(ranked, POLISHES - 1)[POLISHES - 1])
    for flat in lowest[np.argsort(ranked[lowest], kind="stable")][:POLISHES]:
        i, j = divmod(int(flat), phases.size)
        start = np.clip([z[i] / gain, phases[j], contrast[i, j]][:n], *bounds)
        fits.append(least_squares(
            residuals, start, jac=jacobian, bounds=bounds, ftol=_POLISH_TOL, xtol=_POLISH_TOL, gtol=_POLISH_TOL,
        ))
    best = min(fits, key=lambda res: res.cost)
    nfev = sum(res.nfev for res in fits)

    variance = 2.0 * best.cost / max(1, t0.size - n)
    try:
        sigmas = np.sqrt(np.clip(np.diag(variance * np.linalg.pinv(best.jac.T @ best.jac)), 0.0, None))
        covariance_failed = False
    except np.linalg.LinAlgError:  # the SVD behind pinv did not converge
        sigmas, covariance_failed = np.full(n, np.nan), True
    result = SenseResult(
        amplitude=float(best.x[0]),
        amplitude_sigma=float(sigmas[0]),
        phase=float(np.angle(np.exp(1j * best.x[1]))),  # wrapped to (-pi, pi]
        phase_sigma=float(sigmas[1]),
        contrast=float(best.x[2] if fit_contrast else contrast_fixed),
        contrast_sigma=float(sigmas[2]) if fit_contrast else 0.0,
        residual_rms=float(np.sqrt(np.mean(best.fun**2))),
        nfev=int(nfev),
        cost=float(best.cost),
        grid_truncation_bound=tail,
        covariance_failed=covariance_failed,
    )
    logger.debug("sense: %s", result.record())
    return result


@functools.cache
def _grid_table() -> tuple[np.ndarray, np.ndarray, float]:
    """The grid's amplitudes up to 2 z_max (its z are the first half, its 2z
    the odd rows), their ``dynamics._bessel_table`` and its tail: built on
    the first ``sense`` of a process, and read-only, as every later one
    shares them."""
    z = _MAX_INNER_AMPLITUDE * np.arange(1, 2 * _GRID_AMPLITUDES + 1) / _GRID_AMPLITUDES
    bessel, tail = _bessel_table(z)
    z.flags.writeable = bessel.flags.writeable = False
    return z, bessel, tail


def sequence_for_frequency(frequency_hz: float, tau: float = 0.02) -> PulseSequence:
    """CPMG sequence whose main filter peak sits at the given frequency.

    The peak of an n-pulse sequence lies near n / (2 tau), so
    n = round(2 tau f); with tau = 20 ms this maps 50/150/250 Hz to
    2/6/10 pulses. More than ``MAX_PULSES`` raise ``ValueError``.
    """
    pulses = 2.0 * tau * frequency_hz
    if not pulses < MAX_PULSES + 0.5:
        raise ValueError(f"{frequency_hz:g} Hz needs {pulses:.4g} pulses in {tau:g} s, above the {MAX_PULSES} allowed")
    return cpmg(max(1, round(pulses)), tau)


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
    ``sense_log`` records the order in which frequencies were fitted,
    ``skipped`` the (round, frequency) of senses with nothing to fit.
    """

    residuals: tuple[NoiseComponent, ...]
    waveform: tuple[NoiseComponent, ...]
    sense_log: tuple[SenseEvent, ...]
    skipped: tuple[tuple[int, float], ...]

    def record(self) -> dict:
        """The loop's diagnostics, as logged and summarised: the skipped senses, and the number of fitted ones,
        their summed function evaluations and their largest final cost (None if none was fitted)."""
        fits = [event.result for event in self.sense_log]
        return {
            "skipped": [list(event) for event in self.skipped], "senses": len(fits),
            "nfev": sum(fit.nfev for fit in fits), "max_cost": max((fit.cost for fit in fits), default=None),
        }

    def reduction_factors(self, inputs) -> dict[float, float]:
        """Residual/input amplitude ratio per frequency."""
        inp = {c.frequency_hz: c.amplitude for c in inputs}
        return {
            r.frequency_hz: (r.amplitude / inp[r.frequency_hz] if inp[r.frequency_hz] else 0.0)
            for r in self.residuals
        }


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
    Two components at one frequency raise ``ValueError``: the loop
    senses and corrects each frequency once, as one phasor. So does a
    component whose sequence needs more than ``MAX_PULSES`` pulses.
    """
    components = sorted(components, key=lambda c: c.frequency_hz)
    repeated = [a.frequency_hz for a, b in zip(components, components[1:]) if a.frequency_hz == b.frequency_hz]
    if repeated:
        raise ValueError(f"two components at {repeated[0]:g} Hz; the loop senses each frequency once")
    rng = np.random.default_rng(seed)
    true = {c.frequency_hz: c.amplitude * np.exp(1j * c.phase) for c in components}
    applied = {c.frequency_hz: 0.0 + 0.0j for c in components}
    log: list[SenseEvent] = []
    skipped: list[tuple[int, float]] = []

    for round_index in range(max_rounds):
        for f in sorted(true, reverse=True):
            seq = sequence_for_frequency(f, tau)
            current = [_component(g, true[g] + applied[g]) for g in true if np.abs(true[g] + applied[g]) > 0.0]
            t0 = np.arange(scan_points) / scan_points / f
            data = simulate_scan(seq, current, contrast, t0, shots=shots, rng=rng)
            try:
                # the scenario contrast is known here, as it would be
                # from the first large-amplitude fit in the lab
                fit = sense(t0, data, seq, f, contrast_fixed=contrast)
            except FitError:  # nothing measurable left at this frequency
                skipped.append((round_index, f))
                continue
            log.append(SenseEvent(round_index=round_index, frequency_hz=f, result=fit))
            if shots is None or fit.amplitude > 3.0 * fit.amplitude_sigma:
                applied[f] -= fit.amplitude * np.exp(1j * fit.phase)
        if phase_drift > 0.0:  # the drift until the next round, or after the last
            for f in true:
                true[f] *= np.exp(1j * rng.normal(0.0, phase_drift))

    residuals = tuple(_component(f, true[f] + applied[f]) for f in sorted(true))
    waveform = tuple(_component(f, applied[f]) for f in sorted(applied))
    result = CompensationResult(
        residuals=residuals,
        waveform=waveform,
        sense_log=tuple(log),
        skipped=tuple(skipped),
    )
    logger.debug("compensate: %s", result.record())
    return result


TRIGGER_AND_COMPENSATION = "trigger_on_comp_on"
COMPENSATION_ONLY = "comp_only"
BOTH_OFF = "both_off"
_SCENARIOS = (TRIGGER_AND_COMPENSATION, COMPENSATION_ONLY, BOTH_OFF)
_LINE_FREQUENCY_HZ = 50.0  # mains; untriggered shots start uniformly over its period
_RAMSEY_PHASES = 24  # analysis phases of the closing pulse, over one turn


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
    shots: int = 200


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
    period = 1.0 / _LINE_FREQUENCY_HZ

    thetas = np.linspace(0.0, 2.0 * np.pi, _RAMSEY_PHASES, endpoint=False)
    mean_p = np.empty(_RAMSEY_PHASES)
    # every triggered shot starts at line phase 0
    phase = accumulated_phase(seq, comps, 0.0) if triggered else None
    for idx, theta in enumerate(thetas):
        if triggered:
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
