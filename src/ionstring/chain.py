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

import logging
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

# Largest string the equilibrium solver takes: the roundoff floor of the
# Coulomb sum, 4.4e-10 at 2000 ions, grows to about ACCEPTANCE at 3000.
MAX_IONS = 2000
ACCEPTANCE = 1e-9
# Newton iteration stops once max |residual force| falls below this, or
# after _MAX_ITER steps.
_TOL = 1e-13
_MAX_ITER = 200

logger = logging.getLogger(__name__)


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
    """

    omega_x: float
    omega_y: float
    omega_z: float
    ion_mass: float
    ion_count: int

    def __post_init__(self):
        if min(self.omega_x, self.omega_y, self.omega_z) <= 0:
            raise ValueError("trap frequencies must be positive")
        if self.ion_mass <= 0:
            raise ValueError("ion mass must be positive")
        if self.ion_count < 1:
            raise ValueError("ion_count must be >= 1")

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
    first entry within 1e-9 relative of the largest magnitude positive.
    ``lamb_dicke`` carries signed eta_{i,m} once attached, else None.
    """

    direction: str
    frequencies: np.ndarray
    eigenvectors: np.ndarray
    ion_mass: float
    lamb_dicke: np.ndarray | None = None

    @property
    def ion_count(self) -> int:
        return self.eigenvectors.shape[0]


@dataclass(frozen=True)
class SolverRecord:
    """Accepted Newton steps, line-search halvings and final residual force of one solve."""

    iterations: int
    halvings: int
    residual: float
    acceptance: float


def _right_half(v: np.ndarray, odd: int) -> tuple[np.ndarray, np.ndarray]:
    """Force residual on the right half ``v`` of a mirror-symmetric string, and its Coulomb stiffness.

    ``v`` is positive and ascending; ``odd`` adds an ion at 0. ``inv3[i, j]``
    is ``1 / |v_i - u_j|^3`` over all ions j of the string, 0 for j = i.
    """
    m = v.size
    d = np.subtract.outer(v, np.concatenate((-v[::-1], np.zeros(odd), v)))
    d.ravel()[m + odd :: d.shape[1] + 1] = np.inf  # each ion's own column
    np.reciprocal(d, out=d)
    inv3 = np.abs(d)
    d *= inv3  # sign(d) / d^2
    grad = v - d.sum(axis=1)
    np.multiply(inv3, inv3, out=d)
    inv3 *= d
    return grad, inv3


def _mirror_block(inv3: np.ndarray, odd: int, base: float, coupling: float, parity: int) -> np.ndarray:
    """Block A + parity BJ of ``base I + coupling (K - diag(K 1))``, K = ``inv3``, on x_L = parity J x_R.

    The matrix commutes with the reversal J, so it splits into a
    mirror-even block (with the centre ion of an odd string last) and a
    mirror-odd one. The axial Hessian has (base, coupling) = (1, -2), the
    radial matrix ((omega_r / omega_z)^2, 1).
    """
    m = inv3.shape[0]
    size = m + odd if parity > 0 else m
    block = np.empty((size, size))
    np.multiply(inv3[:, :m][:, ::-1], parity * coupling, out=block[:m, :m])
    block[:m, :m] += coupling * inv3[:, m + odd:]
    block.ravel()[: m * (size + 1) : size + 1] += base - coupling * inv3.sum(axis=1)
    if size > m:
        block[m, :m] = block[:m, m] = np.sqrt(2.0) * coupling * inv3[:, m]
        block[m, m] = base - 2.0 * coupling * inv3[:, m].sum()
    return block


def _mirror_eigh(v: np.ndarray, odd: int, base: float, coupling: float) -> list:
    """``eigh`` of both mirror blocks of the string with right half ``v``, freeing each input before the next."""
    inv3 = _right_half(v, odd)[1]
    return [np.linalg.eigh(_mirror_block(inv3, odd, base, coupling, parity)) for parity in (1, -1)]


def equilibrium_positions(trap: TrapParameters, full_output: bool = False):
    """Equilibrium ion positions along the trap axis, in m, ascending.

    A damped Newton iteration on the N // 2 right-half positions of the
    mirror-symmetric string solves the force balance of the
    harmonic-plus-Coulomb potential, each step solving the mirror-odd
    Hessian block. It is seeded at the quantiles of the
    continuum density 1 - (z / L)^2 of a long string (Dubin, Phys. Rev. E
    55, 4017 (1997)), with L^3 = 3 N (ln N - 0.24) fitted to solved
    strings of 30 to 2000 ions. It stops at ``max |residual force| < 1e-13``
    (units of ``m omega_z^2 l``), or where no step lowers a residual
    already under ``ACCEPTANCE``: the roundoff floor of the Coulomb sum.
    ``full_output`` returns a :class:`SolverRecord` too.

    Raises
    ------
    ValueError
        If the trap holds more than ``MAX_IONS`` ions.
    ConvergenceError
        If the residual is not under ``ACCEPTANCE`` after ``_MAX_ITER``
        iterations, or the line search stalls above it.
    """
    n, odd = trap.ion_count, trap.ion_count % 2
    if n > MAX_IONS:
        raise ValueError(f"{n} ions exceed the {MAX_IONS} the equilibrium solver is measured for")
    q = (np.arange(n // 2) + (n + 1) // 2 + 0.5) / n  # x = 2 sin(asin(2q - 1) / 3) inverts the distribution
    v = np.cbrt(3.0 * n * (np.log(n) - 0.24)) * 2.0 * np.sin(np.arcsin(2.0 * q - 1.0) / 3.0)
    grad, inv3 = _right_half(v, odd)
    resid = float(np.max(np.abs(grad), initial=0.0))
    iterations = halvings = 0
    while resid >= _TOL and iterations < _MAX_ITER:
        step = np.linalg.solve(_mirror_block(inv3, odd, 1.0, -2.0, -1), -grad)
        for halving in range(60):
            trial = v + 0.5**halving * step
            if trial[0] > 0 and np.all(np.diff(trial) > 0):
                trial_grad, trial_inv3 = _right_half(trial, odd)
                if np.max(np.abs(trial_grad)) < resid:
                    break
            if resid < ACCEPTANCE:  # at the roundoff floor
                trial = None
                break
        else:
            raise ConvergenceError(f"line search stalled at residual {resid:.3e} (characteristic-force units)")
        halvings += halving
        if trial is None:
            break
        v, grad, inv3 = trial, trial_grad, trial_inv3
        resid = float(np.max(np.abs(grad)))
        iterations += 1

    if resid > ACCEPTANCE:
        raise ConvergenceError(
            f"equilibrium solver stopped at residual {resid:.3e} > {ACCEPTANCE:g} "
            f"(characteristic-force units) after {iterations} iterations"
        )
    record = SolverRecord(iterations, halvings, resid, ACCEPTANCE)
    logger.debug("equilibrium_positions: %d ions, %s", n, record)
    positions = np.concatenate((-v[::-1], np.zeros(odd), v)) * trap.length_scale
    return (positions, record) if full_output else positions


def chain_span(positions: np.ndarray) -> float:
    """End-to-end length of the string in m."""
    return float(positions[-1] - positions[0])


def _fix_eigenvector_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's first entry within 1e-9 relative of its largest magnitude positive, in place.

    A mirror-symmetric mode has two largest entries, equal up to roundoff.
    """
    top = (1.0 - 1e-9) * np.maximum(vectors.max(axis=0), -vectors.min(axis=0))
    pivot = np.argmax((vectors >= top) | (vectors <= -top), axis=0)
    vectors *= np.copysign(1.0, vectors[pivot, np.arange(vectors.shape[1])])
    return vectors


def normal_modes(
    trap: TrapParameters,
    positions: np.ndarray,
    direction: str,
) -> ModeSpectrum:
    """Normal-mode frequencies and eigenvectors for one direction.

    ``positions`` must be a converged output of
    :func:`equilibrium_positions` for the same trap: it is mirror-symmetric,
    so the mirror-even and mirror-odd blocks are diagonalized apart.
    Frequencies come out sorted ascending, so the axial center-of-mass
    mode is first and the transverse center-of-mass mode (at the bare
    radial frequency) is last.

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
    n, m, odd = u.size, u.size // 2, u.size % 2
    if direction == AXIAL:
        base, coupling = 1.0, -2.0
    else:
        omega_r = trap.omega_x if direction == RADIAL_X else trap.omega_y
        base, coupling = (omega_r / trap.omega_z) ** 2, 1.0
    (even_values, even_vectors), (odd_values, odd_vectors) = _mirror_eigh(u[m + odd:], odd, base, coupling)
    # both blocks come sorted: a mode's rank is its index plus the other block's modes below it
    rank = np.concatenate((
        np.arange(m + odd) + np.searchsorted(odd_values, even_values),
        np.arange(m) + np.searchsorted(even_values, odd_values, side="right"),
    ))
    eigenvalues = np.empty(n)
    eigenvalues[rank] = np.concatenate((even_values, odd_values))
    if direction != AXIAL and eigenvalues[0] <= 0:
        # the Coulomb part of the radial matrix has eigenvalues eigenvalues - base
        critical = trap.omega_z * np.sqrt(base - eigenvalues[0])
        raise ZigzagInstabilityError(
            f"{direction} modes unstable: radial frequency must exceed "
            f"{critical:.6e} rad/s at this axial confinement"
        )

    # each mode goes to the column of its rank, with x_R = y / sqrt 2 and x_L = parity J x_R
    vectors = np.zeros((n, n))
    for columns, y, parity in ((rank[: m + odd], even_vectors, 1.0), (rank[m + odd:], odd_vectors, -1.0)):
        half = np.sqrt(0.5) * y[:m]
        vectors[m + odd:, columns] = half
        vectors[:m, columns] = parity * half[::-1]
    if odd:
        vectors[m, rank[: m + 1]] = even_vectors[m]
    return ModeSpectrum(
        direction=direction,
        frequencies=trap.omega_z * np.sqrt(eigenvalues),
        eigenvectors=_fix_eigenvector_signs(vectors),
        ion_mass=trap.ion_mass,
    )


def lamb_dicke(spectrum: ModeSpectrum, k_projection: float) -> ModeSpectrum:
    """Attach signed Lamb-Dicke parameters for a wavevector projection.

    eta_{i,m} = k_projection * b_{i,m} * sqrt(hbar / (2 m omega_m)),
    with the eigenvector sign carried through so that products
    eta_{i,m} eta_{j,m} keep their relative signs.
    """
    zero_point = np.sqrt(HBAR / (2.0 * spectrum.ion_mass * spectrum.frequencies))
    eta = k_projection * spectrum.eigenvectors
    eta *= zero_point  # in place: one N x N array, not two
    return replace(spectrum, lamb_dicke=eta)
