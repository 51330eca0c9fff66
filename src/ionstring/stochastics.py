"""Stochastic estimators: heating laws, crystal survival, phase noise.

All simulators take an explicit seed and derive independent per-trial
streams from it, so results are reproducible and independent of
scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from ionstring.errors import FitError


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
    power law. Needs at least three distinct frequencies.
    """
    if np.unique(data.omega_z).size < 3:
        raise FitError("need >= 3 distinct trap frequencies")
    x = np.log(data.omega_z)
    y = np.log(data.rate / data.ion_count)
    if data.sigma is not None:
        weights = data.rate / data.sigma  # sigma_log = sigma/rate
    else:
        weights = np.ones_like(y)

    wd, wy, gram = _weighted_line(x, y, weights)
    if np.linalg.cond(gram) > 1e12:
        raise FitError("singular regression (frequencies too clustered)")
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
    """Background-gas collision rates, in the units they are quoted in."""

    melt_rate: float = 0.0  # crystal-melting collisions, 1/s
    soft_collision_rate: float = 0.0  # in-probe spoiling collisions, 1/ms

    def __post_init__(self):
        if min(self.melt_rate, self.soft_collision_rate) < 0:
            raise ValueError("rates must be >= 0")

    def spoil_probability(self, probe_time_ms: float) -> float:
        """Chance that a soft collision spoils one probe of given length."""
        return float(1.0 - np.exp(-self.soft_collision_rate * probe_time_ms))


@dataclass(frozen=True)
class SurvivalCurve:
    """Fraction of crystals still intact at each time."""

    times: np.ndarray
    fraction: np.ndarray
    trials: int
    n_melted: int
    seed: int | None


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
    if model.melt_rate == 0.0:
        return SurvivalCurve(times=times, fraction=np.ones(n_bins), trials=trials, n_melted=0, seed=seed)
    melt_times = rng.exponential(1.0 / model.melt_rate, size=trials)
    fraction = (trials - np.searchsorted(np.sort(melt_times), times, side="right")) / trials
    return SurvivalCurve(
        times=times,
        fraction=fraction,
        trials=trials,
        n_melted=int(np.sum(melt_times <= horizon)),
        seed=seed,
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
    melting events reports tau = inf with the flat flag set.
    """
    if curve.n_melted == 0:
        return LifetimeFit(tau=np.inf, tau_sigma=np.inf, flat=True)
    keep = curve.fraction > 0
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


def simulate_phase_noise(
    kind: str,
    strength: float,
    dt: float,
    n_experiments: int,
    seed: int | None = None,
    drift_band_hz: tuple[float, float] = (0.5, 3.0),
    drift_modes: int = 40,
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
        Band-limited Gaussian drift: a sum of ``drift_modes`` random
        sinusoids with frequencies in ``drift_band_hz`` and total
        variance ``strength`` (rad^2). Low-frequency dominated, so
        short-lag correlations decay with Gaussian shape.
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

    freqs = rng.uniform(*drift_band_hz, size=drift_modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=drift_modes)
    amplitude = np.sqrt(2.0 * strength / drift_modes)
    return amplitude * np.sum(
        np.sin(2.0 * np.pi * np.outer(freqs, t) + phases[:, None]), axis=0
    )


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


@dataclass(frozen=True)
class DecayModelSelection:
    """Winning decay shape with its fitted amplitude and scale."""

    kind: str
    amplitude: float
    scale: float
    rss_exponential: float
    rss_gaussian: float


def select_decay_model(correlations: CorrelationSeries, flat_tol: float = 1e-3) -> DecayModelSelection:
    """Choose between exponential and Gaussian decay of C(lag).

    Both two-parameter models a*exp(-lag/s) and a*exp(-(lag/s)^2) are
    fitted by least squares; the smaller residual sum of squares wins.
    A series with no visible decay reports ``flat``.
    """
    if correlations.lags.size < 10:
        raise FitError("need at least 10 lags for model selection")
    lags = correlations.lags
    c = correlations.values
    if np.ptp(c) < flat_tol:
        return DecayModelSelection(
            kind=FLAT, amplitude=float(np.mean(c)), scale=np.inf,
            rss_exponential=np.nan, rss_gaussian=np.nan,
        )

    span = lags[-1] if lags[-1] > 0 else 1.0

    def exp_model(lag, a, s):
        return a * np.exp(-lag / s)

    def gauss_model(lag, a, s):
        return a * np.exp(-((lag / s) ** 2))

    results = {}
    for name, model in ((EXPONENTIAL, exp_model), (GAUSSIAN, gauss_model)):
        best = None
        for s0 in (0.1 * span, 0.3 * span, span):
            try:
                popt, _ = curve_fit(
                    model, lags, c, p0=[1.0, s0],
                    bounds=([0.0, 1e-12], [2.0, np.inf]), maxfev=5000,
                )
            except RuntimeError:
                continue
            rss = float(np.sum((model(lags, *popt) - c) ** 2))
            if best is None or rss < best[0]:
                best = (rss, popt)
        if best is None:
            raise FitError(f"{name} fit failed to converge")
        results[name] = best

    winner = EXPONENTIAL if results[EXPONENTIAL][0] <= results[GAUSSIAN][0] else GAUSSIAN
    rss, popt = results[winner]
    return DecayModelSelection(
        kind=winner,
        amplitude=float(popt[0]),
        scale=float(popt[1]),
        rss_exponential=results[EXPONENTIAL][0],
        rss_gaussian=results[GAUSSIAN][0],
    )
