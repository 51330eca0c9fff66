"""Effective spin-spin couplings and addressing-beam crosstalk.

A bichromatic drive coupling to the 2N transverse modes of an N-ion
string produces an Ising-type interaction with matrix elements

    J_ij = Omega_i Omega_j / 2 * sum_m eta_im eta_jm / Delta_m

and a transverse field B = delta/2 set by the centerline detuning. The
mode detunings Delta_m are signed: positive means the drive beatnote
lies above the mode (see :func:`detunings_from_beatnote`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ionstring.chain import ModeSpectrum
from ionstring.errors import FitError, ResonanceGuardError

DEFAULT_RESONANCE_GUARD = 2.0 * np.pi * 10.0
POWERLAW_MIN_IONS = 4


@dataclass(frozen=True)
class DriveParameters:
    """Bichromatic drive settings.

    ``rabi`` is the per-ion Rabi frequency in rad/s (a scalar
    broadcasts); ``mode_detunings`` holds one signed detuning per mode
    entering the coupling sum, ordered like the concatenated spectra
    passed to :func:`spin_spin_matrix`. ``centerline_detuning`` is
    delta in rad/s and fixes B = delta/2.
    """

    rabi: np.ndarray
    centerline_detuning: float
    mode_detunings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rabi", np.atleast_1d(np.asarray(self.rabi, dtype=float)))
        object.__setattr__(
            self, "mode_detunings", np.asarray(self.mode_detunings, dtype=float)
        )
        if np.any(self.rabi < 0):
            raise ValueError("Rabi frequencies must be >= 0")
        if np.any(self.mode_detunings == 0):
            raise ResonanceGuardError("mode detunings must be nonzero")


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric spin-spin matrix J (rad/s) and transverse field B (rad/s)."""

    j: np.ndarray
    field_b: float

    @property
    def ion_count(self) -> int:
        return self.j.shape[0]


def detunings_from_beatnote(spectra: list[ModeSpectrum], beatnote: float) -> np.ndarray:
    """Signed detunings Delta_m = beatnote - omega_m for stacked spectra.

    ``beatnote`` is the drive's sideband beat frequency (rad/s) measured
    from the qubit carrier. With this convention a beatnote above every
    transverse mode gives all-positive detunings.
    """
    freqs = np.concatenate([s.frequencies for s in spectra])
    return beatnote - freqs


def spin_spin_matrix(
    spectra: list[ModeSpectrum],
    drive: DriveParameters,
    resonance_guard: float = DEFAULT_RESONANCE_GUARD,
) -> CouplingMatrix:
    """Coupling matrix from mode data and drive parameters.

    ``spectra`` is a list of mode families (normally both transverse
    directions, so 2N modes in total), each with Lamb-Dicke parameters
    attached. ``drive.mode_detunings`` must match the concatenated mode
    count and aligns mode-by-mode with the stacked spectra.

    Raises
    ------
    ResonanceGuardError
        If any |Delta_m| falls below ``resonance_guard`` (default
        2 pi x 10 Hz), naming the offending mode.
    """
    for s in spectra:
        if s.lamb_dicke is None:
            raise ValueError(f"{s.direction} spectrum lacks Lamb-Dicke parameters")
    n = spectra[0].ion_count
    if any(s.ion_count != n for s in spectra):
        raise ValueError("spectra disagree on ion count")

    eta = np.hstack([s.lamb_dicke for s in spectra])  # N x (total modes)
    detunings = drive.mode_detunings
    if eta.shape[1] != detunings.size:
        raise ValueError(
            f"{detunings.size} detunings for {eta.shape[1]} modes"
        )
    small = np.abs(detunings) < resonance_guard
    if np.any(small):
        m = int(np.argmax(small))
        labels = np.concatenate(
            [[f"{s.direction}:{i}" for i in range(s.ion_count)] for s in spectra]
        )
        raise ResonanceGuardError(
            f"mode {labels[m]} detuning {detunings[m]:.3e} rad/s is inside "
            f"the resonance guard ({resonance_guard:.3e} rad/s)"
        )

    rabi = np.broadcast_to(drive.rabi, (n,)).astype(float)
    weighted = eta / detunings[None, :]
    j = 0.5 * np.outer(rabi, rabi) * (weighted @ eta.T)
    j = 0.5 * (j + j.T)  # kill round-off asymmetry
    np.fill_diagonal(j, 0.0)
    return CouplingMatrix(j=j, field_b=0.5 * drive.centerline_detuning)


@dataclass(frozen=True)
class PowerLawFit:
    """Distance power law |J| ~ prefactor * d^(-exponent)."""

    exponent: float
    prefactor: float
    residual: float


def powerlaw_fit(coupling: CouplingMatrix) -> PowerLawFit:
    """Least-squares power-law summary of the coupling range.

    Averages |J_ij| over all pairs at each ion distance d = |i - j| and
    fits a line to log |J| vs log d. Requires N >= 4 and positive
    averaged couplings.
    """
    n = coupling.ion_count
    if n < POWERLAW_MIN_IONS:
        raise FitError(f"power-law fit needs at least {POWERLAW_MIN_IONS} ions")
    distances = np.arange(1, n)
    means = np.array(
        [np.mean(np.abs(np.diagonal(coupling.j, offset=d))) for d in distances]
    )
    if np.any(means <= 0):
        raise FitError("averaged |J| vanishes at some distance; cannot fit log law")
    slope, intercept = np.polyfit(np.log(distances), np.log(means), 1)
    fitted = intercept + slope * np.log(distances)
    residual = float(np.sqrt(np.mean((np.log(means) - fitted) ** 2)))
    return PowerLawFit(exponent=-slope, prefactor=float(np.exp(intercept)), residual=residual)


@dataclass(frozen=True)
class AddressingBeam:
    """Focused addressing-beam profile along the string.

    ``waist`` is the 1/e^2 intensity radius of the Gaussian focus at
    ``center``; ``pedestal_floor`` a constant relative field amplitude
    from scattered light.
    """

    waist: float
    center: float = 0.0
    pedestal_floor: float = 0.0

    def __post_init__(self):
        if self.waist <= 0:
            raise ValueError("waist must be positive")
        if not 0.0 <= self.pedestal_floor < 1.0:
            raise ValueError("pedestal_floor must be in [0, 1)")

    def field_amplitude(self, z) -> np.ndarray:
        """Relative field amplitude of the beam at positions z (m)."""
        z = np.asarray(z, dtype=float)
        return np.exp(-((z - self.center) ** 2) / self.waist**2) + self.pedestal_floor


def crosstalk_map(beam: AddressingBeam, positions: np.ndarray) -> np.ndarray:
    """Resonant crosstalk ratio at every ion for a beam centered on one ion.

    The ratio is that of field amplitudes (Rabi frequencies) to the
    addressed ion's, the position closest to the beam center, which has
    ratio exactly 1. Its square is the AC-Stark (intensity) ratio.
    """
    amp = beam.field_amplitude(positions)
    addressed = np.argmin(np.abs(np.asarray(positions) - beam.center))
    return amp / amp[addressed]
