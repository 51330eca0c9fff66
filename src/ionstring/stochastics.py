"""Stochastic estimators: heating laws, crystal survival, phase noise.

All simulators take an explicit seed and derive independent per-trial
streams from it, so results are reproducible and independent of
scheduling order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ionstring.errors import FitError

logger = logging.getLogger(__name__)

HEATING_MIN_FREQUENCIES = 3


@dataclass(frozen=True)
class HeatingDataset:
    """Measured heating rates vs axial trap frequency.

    ``omega_z`` in rad/s, ``rate`` in quanta/s (one row per setting),
    ``ion_count`` the string size of each row, ``sigma`` the 1-sigma
    rate uncertainty (optional).
    """

    omega_z: np.ndarray
    ion_count: np.ndarray
    rate: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "omega_z", np.asarray(self.omega_z, dtype=float))
        object.__setattr__(self, "ion_count", np.asarray(self.ion_count, dtype=float))
        object.__setattr__(self, "rate", np.asarray(self.rate, dtype=float))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if np.any(self.rate <= 0):
            raise ValueError("heating rates must be positive")


def _weighted_line(x, y, weights):
    """Weighted design, weighted data and normal matrix of the line y ~ c0 + c1 x."""
    wd = np.column_stack([np.ones_like(x), x]) * weights[:, None]
    return wd, y * weights, wd.T @ wd


@dataclass(frozen=True)
class HeatingFit:
    """Power law (rate / N) = prefactor * omega^(-exponent)."""

    prefactor: float
    exponent: float
    exponent_sigma: float


def fit_heating(data: HeatingDataset) -> HeatingFit:
    """Weighted log-log regression of the per-ion heating rate.

    Rates are normalized by the ion count before fitting, which
    collapses datasets taken with different string sizes onto one
    power law. Needs ``HEATING_MIN_FREQUENCIES`` distinct frequencies.
    """
    if np.unique(data.omega_z).size < HEATING_MIN_FREQUENCIES:
        raise FitError(f"need >= {HEATING_MIN_FREQUENCIES} distinct trap frequencies")
    x = np.log(data.omega_z)
    y = np.log(data.rate / data.ion_count)
    weights = np.ones_like(y)
    if data.sigma is not None:
        with np.errstate(over="ignore", divide="ignore"):  # a weight past the float range is named below
            weights = data.rate / data.sigma  # sigma_log = sigma/rate
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0)))
        if bad.size:
            row = bad[0]
            rate, sigma = data.rate[row], data.sigma[row]
            raise FitError(f"row {row}: weight rate/sigma = {rate:g}/{sigma:g} is not positive and finite")
    # the line and its rss/dof covariance do not change when every weight is scaled by one factor;
    # a power of two near the largest scales them exactly, and keeps the normal matrix finite
    weights = np.ldexp(weights, -np.frexp(weights.max())[1])

    wd, wy, gram = _weighted_line(x, y, weights)
    if np.linalg.cond(gram) > 1e12:
        if np.linalg.cond(_weighted_line(x, y, np.ones_like(y))[2]) > 1e12:
            raise FitError("singular regression (frequencies too clustered)")
        ratio = weights.min() / weights.max()
        raise FitError(f"singular regression (the smallest weight rate/sigma is {ratio:.3g} of the largest)")
    coeff = np.linalg.solve(gram, wd.T @ wy)
    residuals = wy - wd @ coeff
    dof = max(1, y.size - 2)
    cov = np.linalg.inv(gram) * float(residuals @ residuals) / dof
    return HeatingFit(
        prefactor=float(np.exp(coeff[0])),
        exponent=float(-coeff[1]),
        exponent_sigma=float(np.sqrt(cov[1, 1])),
    )


@dataclass(frozen=True)
class CollisionModel:
    """Background-gas collision rate, in the unit it is quoted in."""

    melt_rate: float = 0.0  # crystal-melting collisions, 1/s

    def __post_init__(self):
        if self.melt_rate < 0:
            raise ValueError("melt_rate must be >= 0")


@dataclass(frozen=True)
class SurvivalCurve:
    """Fraction of crystals still intact at each time."""

    times: np.ndarray
    fraction: np.ndarray
    trials: int
    n_melted: int


def simulate_survival(
    model: CollisionModel,
    horizon: float,
    trials: int,
    seed: int | None = None,
    n_bins: int = 60,
) -> SurvivalCurve:
    """Monte-Carlo survival fractions against collision-induced melting.

    Melt times are exponential with the model's melt rate; the curve
    reports the surviving fraction on a uniform time grid up to
    ``horizon``.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, horizon, n_bins)
    melt_times = rng.exponential(1.0 / model.melt_rate, size=trials) if model.melt_rate > 0 else np.full(trials, np.inf)
    fraction = (trials - np.searchsorted(np.sort(melt_times), times, side="right")) / trials
    return SurvivalCurve(
        times=times,
        fraction=fraction,
        trials=trials,
        n_melted=int(np.sum(melt_times <= horizon)),
    )


@dataclass(frozen=True)
class LifetimeFit:
    """Exponential lifetime with uncertainty; flat curves flag infinity."""

    tau: float
    tau_sigma: float
    flat: bool


def fit_lifetime(curve: SurvivalCurve) -> LifetimeFit:
    """Log-linear weighted fit of S(t) = exp(-t / tau).

    Zero-count bins are excluded; weights follow the binomial variance
    of each surviving fraction with an add-one regularizer so that
    all-surviving bins keep a finite weight. Because curve bins share
    trials and are strongly correlated, the quoted uncertainty is the
    exponential maximum-likelihood scale tau / sqrt(events) rather than
    the (far too optimistic) regression covariance. A curve with no
    melting events reports tau = inf with the flat flag set; one with
    fewer than two time bins holding survivors raises FitError.
    """
    if curve.n_melted == 0:
        return LifetimeFit(tau=np.inf, tau_sigma=np.inf, flat=True)
    keep = curve.fraction > 0
    if np.count_nonzero(keep) < 2:
        raise FitError(f"fewer than two time bins have survivors ({np.count_nonzero(keep)} of {keep.size})")
    t = curve.times[keep]
    s = curve.fraction[keep]
    n = curve.trials
    var_log = (1.0 - s + 1.0 / n) / (s * n)
    weights = 1.0 / np.sqrt(var_log)
    wd, wy, gram = _weighted_line(t, np.log(s), weights)
    slope = np.linalg.solve(gram, wd.T @ wy)[1]
    if slope >= 0:
        return LifetimeFit(tau=np.inf, tau_sigma=np.inf, flat=True)
    tau = -1.0 / slope
    return LifetimeFit(
        tau=float(tau),
        tau_sigma=float(tau / np.sqrt(curve.n_melted)),
        flat=False,
    )


RANDOM_WALK = "random_walk"
WHITE_FREQUENCY = "white_frequency"
SLOW_DRIFT = "slow_drift"
_NOISE_KINDS = (RANDOM_WALK, WHITE_FREQUENCY, SLOW_DRIFT)
_DRIFT_BAND_HZ = (0.5, 3.0)
_DRIFT_MODES = 40


def simulate_phase_noise(
    kind: str, strength: float, dt: float, n_experiments: int, seed: int | None = None
) -> np.ndarray:
    """Relative-phase series Delta-phi_i sampled at interval dt.

    kinds
    -----
    ``random_walk``
        Brownian phase: increments N(0, strength * dt) with strength in
        rad^2/s (white frequency noise integrated between experiments);
        correlations decay exponentially, C(lag) = exp(-strength*lag/2).
    ``white_frequency``
        Independent N(0, strength) phase per experiment (strength in
        rad^2), the limit of noise much faster than the repetition
        rate; correlations drop to a lag-independent floor.
    ``slow_drift``
        Band-limited Gaussian drift: a sum of 40 random sinusoids with
        frequencies in 0.5-3 Hz and total variance ``strength`` (rad^2).
        Low-frequency dominated, so short-lag correlations decay with
        Gaussian shape.
    """
    if kind not in _NOISE_KINDS:
        raise ValueError(f"kind must be one of {_NOISE_KINDS}")
    if strength <= 0:
        raise ValueError("strength must be positive")
    rng = np.random.default_rng(seed)
    t = np.arange(n_experiments) * dt

    if kind == RANDOM_WALK:
        increments = rng.normal(0.0, np.sqrt(strength * dt), size=n_experiments)
        return np.cumsum(increments)
    if kind == WHITE_FREQUENCY:
        return rng.normal(0.0, np.sqrt(strength), size=n_experiments)

    freqs = rng.uniform(*_DRIFT_BAND_HZ, size=_DRIFT_MODES)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=_DRIFT_MODES)
    amplitude = np.sqrt(2.0 * strength / _DRIFT_MODES)
    # mode by mode: the bits of a sum over the rows of a modes x n array, without that array
    return amplitude * sum(np.sin(2.0 * np.pi * (freq * t) + phase) for freq, phase in zip(freqs, phases))


@dataclass(frozen=True)
class CorrelationSeries:
    """Phase correlations C(lag) = <cos(dphi_i - dphi_j)> per lag."""

    lags: np.ndarray
    values: np.ndarray
    pair_counts: np.ndarray


def phase_correlations(series: np.ndarray, dt: float, max_lag: int) -> CorrelationSeries:
    """Pair-averaged correlations of a phase series up to max_lag steps."""
    series = np.asarray(series, dtype=float)
    if max_lag >= series.size:
        raise ValueError("max_lag must be smaller than the series length")
    lags = np.arange(max_lag + 1)
    counts = series.size - lags
    # C(k) (n - k) = Re sum_i z_(i+k) conj(z_i), z = e^(i phi): one FFT, padded so no lag wraps
    spectrum = np.fft.fft(np.exp(1j * series), n=series.size + max_lag)
    pair_sums = np.fft.ifft(np.abs(spectrum) ** 2)[: lags.size].real
    values = np.clip(pair_sums / counts, -1.0, 1.0)  # roundoff can step past |C| = 1
    values[0] = 1.0  # every phase paired with itself
    return CorrelationSeries(lags=lags * dt, values=values, pair_counts=counts)


EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"
FLAT = "flat"
_DECAY_SHAPES = {EXPONENTIAL: lambda x: np.exp(-x), GAUSSIAN: lambda x: np.exp(-x * x)}
_FLAT_TOL = 1e-3  # peak-to-peak correlation below which a series shows no decay
_SCALE_REACH = 1e3  # scales searched: lags[1] / reach to lags[-1] * reach, 10 per decade
_SCALE_TOL = 1e-12  # Brent tolerance on log scale: polish to the minimum, not near it


class DecayFit(NamedTuple):
    """One model's fit a * g(lag / s); ``at_edge`` marks a grid scale left unpolished."""

    amplitude: float
    scale: float
    rss: float
    nfev: int
    at_edge: bool


@dataclass(frozen=True)
class DecayModelSelection:
    """Winning decay shape with its fitted amplitude and scale; no ``fits`` for a flat series."""

    kind: str
    amplitude: float
    scale: float
    fits: dict[str, DecayFit]

    def record(self) -> dict:
        """Each fitted model's evaluations, RSS and edge flag, as logged and summarised."""
        return {name: {"nfev": fit.nfev, "rss": fit.rss, "at_edge": fit.at_edge} for name, fit in self.fits.items()}


def _fit_decay(shape, lags, c) -> DecayFit:
    from scipy.optimize import minimize_scalar  # imported here: only the fitting kinds load scipy.optimize

    def profiled(scales):  # the RSS is quadratic in a, so clipping its optimum into [0, 2] is exact
        b = shape(lags[None, :] / scales[:, None])
        bb, bc = np.einsum("ij,ij->i", b, b), b @ c
        a = np.clip(np.divide(bc, bb, out=np.zeros_like(bc), where=bb > 0), 0.0, 2.0)
        return a, np.sum((a[:, None] * b - c) ** 2, axis=1)

    lo, hi = lags[1] / _SCALE_REACH, lags[-1] * _SCALE_REACH
    scales = np.geomspace(lo, hi, int(np.ceil(10 * np.log10(hi / lo))) + 1)
    a, rss = profiled(scales)
    k = int(np.argmin(rss))
    if not 0 < k < scales.size - 1 or not rss[k - 1] > rss[k] < rss[k + 1]:
        return DecayFit(float(a[k]), float(scales[k]), float(rss[k]), scales.size, True)
    polish = minimize_scalar(
        lambda log_s: profiled(np.exp([log_s]))[1][0],
        bracket=tuple(np.log(scales[k - 1 : k + 2])), method="brent", tol=_SCALE_TOL,
    )
    scale = np.exp([polish.x])
    a, rss = profiled(scale)
    return DecayFit(float(a[0]), float(scale[0]), float(rss[0]), scales.size + polish.nfev + 1, False)


def select_decay_model(correlations: CorrelationSeries) -> DecayModelSelection:
    """Choose between exponential and Gaussian decay of C(lag).

    Both models a*exp(-lag/s) and a*exp(-(lag/s)^2) are fitted by least
    squares. The amplitude a, in which they are linear, is solved in
    closed form (variable projection, Golub & Pereyra 1973); a grid over
    log s, from a spike at lag 0 to a flat line, picks the scale and a
    Brent search polishes it when the grid minimum is bracketed. The
    smaller residual sum of squares wins, the exponential on a tie. A
    series with no visible decay reports ``flat``.
    """
    if correlations.lags.size < 10:
        raise FitError("need at least 10 lags for model selection")
    lags = correlations.lags
    c = correlations.values
    if np.ptp(c) < _FLAT_TOL:
        return DecayModelSelection(kind=FLAT, amplitude=float(np.mean(c)), scale=np.inf, fits={})

    fits = {name: _fit_decay(shape, lags, c) for name, shape in _DECAY_SHAPES.items()}
    winner = EXPONENTIAL if fits[EXPONENTIAL].rss <= fits[GAUSSIAN].rss else GAUSSIAN
    selection = DecayModelSelection(kind=winner, amplitude=fits[winner].amplitude, scale=fits[winner].scale, fits=fits)
    logger.debug("select_decay_model: %s", selection.record())
    return selection
