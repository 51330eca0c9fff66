"""Equilibrium structure and normal modes of a linear ion string.

A chain of identical ions in an anisotropic harmonic trap is described
by the dimensionless axial coordinates ``u = z / l`` where
``l = (e^2 / (4 pi eps0 m omega_z^2))^(1/3)`` is the Coulomb length
scale. Equilibrium positions minimize the harmonic-plus-Coulomb
potential; normal modes diagonalize its Hessian, separately for the
axial direction and each transverse direction.

Angular frequencies (rad/s) are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ionstring.constants import (
    COULOMB_CONSTANT,
    ELEMENTARY_CHARGE,
    HBAR,
)
from ionstring.errors import ConvergenceError, ZigzagInstabilityError

AXIAL = "axial"
RADIAL_X = "radial-x"
RADIAL_Y = "radial-y"
_DIRECTIONS = (AXIAL, RADIAL_X, RADIAL_Y)


@dataclass(frozen=True)
class TrapParameters:
    """Static trap and ion-species parameters.

    Parameters
    ----------
    omega_x, omega_y, omega_z : float
        Trap angular frequencies in rad/s. Anisotropy is not enforced;
        a zigzag-unstable configuration surfaces as an error when the
        radial modes are computed.
    ion_mass : float
        Ion mass in kg.
    ion_count : int
        Number of ions, >= 1.
    laser_wavelength : float
        Wavelength of the qubit laser in m (used for Lamb-Dicke factors).
    """

    omega_x: float
    omega_y: float
    omega_z: float
    ion_mass: float
    ion_count: int
    laser_wavelength: float = 729e-9

    def __post_init__(self):
        if min(self.omega_x, self.omega_y, self.omega_z) <= 0:
            raise ValueError("trap frequencies must be positive")
        if self.ion_mass <= 0:
            raise ValueError("ion mass must be positive")
        if self.ion_count < 1:
            raise ValueError("ion_count must be >= 1")
        if self.laser_wavelength <= 0:
            raise ValueError("laser_wavelength must be positive")

    @property
    def length_scale(self) -> float:
        """Coulomb length l = (e^2/(4 pi eps0 m omega_z^2))^(1/3) in m."""
        return (
            COULOMB_CONSTANT
            * ELEMENTARY_CHARGE**2
            / (self.ion_mass * self.omega_z**2)
        ) ** (1.0 / 3.0)


@dataclass(frozen=True)
class ModeSpectrum:
    """Normal modes of one trap direction.

    ``frequencies`` are sorted ascending; column ``m`` of
    ``eigenvectors`` is the participation vector of mode ``m`` with the
    largest-magnitude entry made positive. ``lamb_dicke`` carries signed
    eta_{i,m} once attached, else None.
    """

    direction: str
    frequencies: np.ndarray
    eigenvectors: np.ndarray
    ion_mass: float
    lamb_dicke: np.ndarray | None = None

    @property
    def ion_count(self) -> int:
        return self.eigenvectors.shape[0]


def _separations(u: np.ndarray) -> np.ndarray:
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return d


def _potential_gradient(u: np.ndarray) -> np.ndarray:
    d = _separations(u)
    return u - np.sum(np.sign(d) / d**2, axis=1)


def _potential_hessian(u: np.ndarray) -> np.ndarray:
    d = _separations(u)
    inv3 = 1.0 / np.abs(d) ** 3
    h = -2.0 * inv3
    np.fill_diagonal(h, 0.0)
    np.fill_diagonal(h, 1.0 + 2.0 * np.sum(inv3, axis=1))
    return h


def _seed_positions(n: int) -> np.ndarray:
    if n == 1:
        return np.zeros(1)
    # Uniform spacing at the known minimum-spacing scale of a Coulomb
    # chain; the damped Newton iteration does the rest.
    spacing = 2.018 / n**0.559
    return spacing * (np.arange(n) - 0.5 * (n - 1))


def equilibrium_positions(
    trap: TrapParameters,
    tol: float = 1e-13,
    max_iter: int = 200,
) -> np.ndarray:
    """Equilibrium ion positions along the trap axis, in m, ascending.

    Solves the force-balance equations for the harmonic-plus-Coulomb
    potential with a damped Newton iteration seeded from a uniformly
    spaced chain. The returned configuration is symmetrized about the
    trap center and satisfies ``max |residual force| < 1e-9`` in units
    of the characteristic force ``m omega_z^2 l``.

    Raises
    ------
    ConvergenceError
        If the residual tolerance is not reached within ``max_iter``.
    """
    n = trap.ion_count
    u = _seed_positions(n)
    if n == 1:
        return np.zeros(1)

    grad = _potential_gradient(u)
    for _ in range(max_iter):
        resid = np.max(np.abs(grad))
        if resid < tol:
            break
        step = np.linalg.solve(_potential_hessian(u), -grad)
        alpha = 1.0
        for _ in range(60):
            trial = u + alpha * step
            if np.all(np.diff(trial) > 0):
                trial_grad = _potential_gradient(trial)
                if np.max(np.abs(trial_grad)) < resid:
                    break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                f"line search stalled at residual {resid:.3e} "
                f"(characteristic-force units)"
            )
        u, grad = trial, trial_grad

    resid = np.max(np.abs(grad))
    if resid > 1e-9:
        raise ConvergenceError(
            f"equilibrium solver stopped at residual {resid:.3e} > 1e-9 "
            f"(characteristic-force units) after {max_iter} iterations"
        )
    u = 0.5 * (u - u[::-1])  # exact mirror symmetry
    return u * trap.length_scale


def chain_span(positions: np.ndarray) -> float:
    """End-to-end length of the string in m."""
    return float(positions[-1] - positions[0])


def _radial_matrix(u: np.ndarray, anisotropy_sq: float) -> np.ndarray:
    d = _separations(u)
    inv3 = 1.0 / np.abs(d) ** 3
    np.fill_diagonal(inv3, 0.0)
    k = inv3.copy()
    np.fill_diagonal(k, -np.sum(inv3, axis=1))
    return anisotropy_sq * np.eye(len(u)) + k


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for m in range(out.shape[1]):
        pivot = np.argmax(np.abs(out[:, m]))
        if out[pivot, m] < 0:
            out[:, m] = -out[:, m]
    return out


def normal_modes(
    trap: TrapParameters,
    positions: np.ndarray,
    direction: str,
) -> ModeSpectrum:
    """Normal-mode frequencies and eigenvectors for one direction.

    ``positions`` must be a converged output of
    :func:`equilibrium_positions` for the same trap. Frequencies come
    out sorted ascending, so the axial center-of-mass mode is first and
    the transverse center-of-mass mode (at the bare radial frequency)
    is last.

    Raises
    ------
    ZigzagInstabilityError
        If a transverse eigenvalue is negative, i.e. the linear chain is
        unstable at this anisotropy. The message names the critical
        radial frequency for this axial configuration.
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}")
    u = np.asarray(positions, dtype=float) / trap.length_scale

    if direction == AXIAL:
        matrix = _potential_hessian(u)
    else:
        omega_r = trap.omega_x if direction == RADIAL_X else trap.omega_y
        matrix = _radial_matrix(u, (omega_r / trap.omega_z) ** 2)

    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    if direction != AXIAL and eigenvalues[0] <= 0:
        coulomb_part = _radial_matrix(u, 0.0)
        critical = trap.omega_z * np.sqrt(
            np.max(np.linalg.eigvalsh(-coulomb_part))
        )
        raise ZigzagInstabilityError(
            f"{direction} modes unstable: radial frequency must exceed "
            f"{critical:.6e} rad/s at this axial confinement"
        )

    return ModeSpectrum(
        direction=direction,
        frequencies=trap.omega_z * np.sqrt(eigenvalues),
        eigenvectors=_fix_eigenvector_signs(eigenvectors),
        ion_mass=trap.ion_mass,
    )


def lamb_dicke(spectrum: ModeSpectrum, k_projection: float) -> ModeSpectrum:
    """Attach signed Lamb-Dicke parameters for a wavevector projection.

    eta_{i,m} = k_projection * b_{i,m} * sqrt(hbar / (2 m omega_m)),
    with the eigenvector sign carried through so that products
    eta_{i,m} eta_{j,m} keep their relative signs.
    """
    zero_point = np.sqrt(HBAR / (2.0 * spectrum.ion_mass * spectrum.frequencies))
    eta = k_projection * spectrum.eigenvectors * zero_point[None, :]
    return replace(spectrum, lamb_dicke=eta)
