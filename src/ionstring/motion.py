"""Wavefront probing of hot axial motion with CPMG sequences.

Both models run one pulse train, ``wavefront_train``: a pi/2-pulse,
N_p alternating pi-pulses and a pi/2-pulse, their centres T_wait apart,
so the pi-pulses sit at n / (N_p + 1) of tau = (N_p + 1) T_wait.

Semiclassical model: an ion oscillating along the trap axis sees a
phase-modulated drive whenever the beam's wavevector has a component
k_z along the axis. The train accumulates the phase

    Phi = k_z a [ sin(w t_i) A_Np(x) + cos(w t_i) B_Np(x) ],  x = w T_wait,

where A_Np + i B_Np is the train's kick sum (``sequences.kick_sum``)
at (N_p + 1) x, and excites the qubit to (1 - cos Phi)/2. Averaging
over a thermal motional distribution at temperature T gives

    e = 1/2 (1 - exp(-kB T k_z^2 C^2 / (2 m w^2))),   C^2 = A^2 + B^2,

where C^2 also has the closed form
4 (sin((Np+1)(x+pi)/2) / tan((x+pi)/2))^2, peaking at 4 (Np+1)^2 for x
an odd multiple of pi. The peak excitation is ``thermal_excitation`` at
T_wait = pi / w, ``infer_k_z`` inverts it, and ``infer_tilt`` gives the
beam tilt asin(k_z / k) that explains it.

Quantum model: a two-level system coupled to one harmonic mode through
H = w (a+ a + 1/2) + (Omega/2)(e^(i eta (a + a+)) s+ e^(-i Delta t)
+ h.c.), evolved exactly through the train, its pulses of finite
duration centred on the train's pulse times, in a truncated Fock basis
and averaged over a thermal distribution. This reproduces the
intermediate peaks at full trap periods that appear when Omega is
comparable to the trap frequency.

The pulse propagators are banded in Fock space, since one pulse moves a
state by only about pi eta sqrt(n) levels. Only two are built, for the
pi/2- and pi-pulses about +x, once and sparse, by scaling and squaring
that drops only entries below 1e-20; the norm of what is dropped bounds
the error and is reported. They are built where H is real and splits:
in the gauge diag(i^n), which turns the displacement into the real
rotation D = exp(eta (a+ - a)), and in the basis |n, +/-> of the parity
(-1)^n sigma_x, which H conserves at zero detuning, so each propagator
holds about half the entries of its spin-basis form. D and H are built
from arrays: D's Taylor terms run on its diagonals, each two shifted
products of the last with the tridiagonal generator, and H's CSR arrays
are written from D's diagonals, the level energies and the detuning.
The propagators' Taylor steps run sparse, in real arithmetic, on H with
its diagonal centred on its midpoint (a global phase, which halves the
1-norm and saves one squaring). One vectorized pass over each squared
propagator's CSR arrays brings it to the (n, spin) basis by an
orthogonal map per level and cuts it into the dense row-block slabs
that the scan multiplies. The gauge is diagonal and commutes with every
phase of the sequence, so the scan runs in it. A pulse about another
axis is one of them conjugated by a diagonal phase matrix, which joins
the free evolution applied before each pulse, so every drive axis is a
phase. A group of waits is one stack of states, a column per state and
wait; a one-state scan takes up to 32 waits at once. The first
pulse gathers its columns from the slabs, and each later pulse updates
the stack in place, slab by slab, each slab's product held until the
slabs that read its old rows have run. Every column keeps a row window
that holds all of its entries at or above 1e-20, a few slabs around its
initial Fock level, and a slab multiplies only the columns whose
windows meet its column span, so a pulse costs O(window x band) per
column instead of O(L x band). The products left out hold only entries
below 1e-20; their norm, at most 1e-20 sqrt(2 L) per state and pulse,
is added to the bound.

The basis itself is sized by the levels the states reach: H and the
propagators are built on L levels from a first level, inside the
cutoff + 1, and the basis grows until its edge band widths and slabs
inside the cutoff hold no entry at or above 1e-20 (see
``quantum_cpmg_scan``). A smaller basis thus changes only roundoff; the
cutoff stays the ceiling of the basis, the cap of the thermal
truncation and the basis of the adequacy rule.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ionstring.constants import HBAR, KB
from ionstring.errors import FockCutoffError, IonstringError
from ionstring.sequences import PulseSequence, kick_sum

_CUTOFF_MARGIN = 50
_THERMAL_TAIL = 1e-4  # thermal weight left out above the highest initial Fock level
_LEAK_TOL = 1e-6  # population allowed in the top two Fock levels
# Propagator entries below this magnitude are dropped; their norm is reported.
_DROP_FLOOR = 1e-20
_SLAB_ROWS = 32
_SLAB_LEVELS = _SLAB_ROWS // 2  # each level holds two rows, one per spin
_REACH = 64  # levels above the top initial level in the first basis of a scan

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SemiclassicalParams:
    """Inputs of the thermal point-particle model (SI units)."""

    omega: float
    t_wait: float | np.ndarray
    n_pulses: int
    k_z: float
    temperature: float
    mass: float

    def __post_init__(self):
        if min(self.omega, self.mass) <= 0 or np.any(np.asarray(self.t_wait) <= 0):
            raise ValueError("omega, t_wait, and mass must be positive")
        if self.temperature < 0 or self.k_z < 0:
            raise ValueError("temperature and k_z must be >= 0")
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")


@dataclass(frozen=True)
class PhaseCoefficients:
    """A, B sums and C^2 by both evaluation routes."""

    a: np.ndarray
    b: np.ndarray
    c2: np.ndarray
    c2_closed: np.ndarray


def wavefront_train(n_pulses: int, t_wait: float) -> PulseSequence:
    """The train of both models: pi/2-pulses at 0 and (Np+1) t_wait, pi-pulse j at j t_wait."""
    return PulseSequence(delta=tuple(j / (n_pulses + 1) for j in range(1, n_pulses + 1)), tau=(n_pulses + 1) * t_wait)


def phase_coefficients(n_pulses: int, x) -> PhaseCoefficients:
    """Coefficient sums of the accumulated phase at x = omega * T_wait.

    a + i b is the kick sum of ``wavefront_train`` at (Np+1) x; ``c2_closed``
    is C^2 in closed form, evaluated through the Chebyshev identity
    sin((Np+1)u)/sin(u) = U_Np(cos u) so that the removable
    singularities at odd multiples of pi take their limit values.
    """
    x = np.asarray(x, dtype=float)
    kicks = kick_sum(wavefront_train(n_pulses, 1.0), (n_pulses + 1) * x)
    a, b = kicks.real, kicks.imag
    return PhaseCoefficients(a=a, b=b, c2=a**2 + b**2, c2_closed=_c2_closed(n_pulses, x))


def _c2_closed(n_pulses: int, x):
    """C^2 in closed form, through the Chebyshev identity of ``phase_coefficients``."""
    from scipy.special import eval_chebyu  # imported here: only the semiclassical kinds load scipy.special

    cos_u = np.cos(0.5 * (x + np.pi))
    return 4.0 * (eval_chebyu(n_pulses, cos_u) * cos_u) ** 2


def trajectory_excitation(
    n_pulses: int,
    omega: float,
    t_wait: float,
    k_z: float,
    amplitude: float,
    t_start: float,
) -> float:
    """Excitation for one fixed classical trajectory z(t) = a sin(w t).

    Uses the accumulated-phase form with the A/B coefficient sums; the
    independent check is a chain of 2x2 rotation matrices.
    """
    coeff = phase_coefficients(n_pulses, omega * t_wait)
    phi = k_z * amplitude * (
        np.sin(omega * t_start) * coeff.a + np.cos(omega * t_start) * coeff.b
    )
    return float(0.5 * (1.0 - np.cos(phi)))


def thermal_excitation(params: SemiclassicalParams) -> float | np.ndarray:
    """Thermally averaged excitation after the pulse train, in [0, 1/2].

    An array of waits ``params.t_wait`` gives the array of excitations.
    """
    c2 = _c2_closed(params.n_pulses, params.omega * params.t_wait)
    # an exponent past the float range is inf, where the excitation saturates at 1/2
    with np.errstate(over="ignore"):
        exponent = KB * params.temperature * params.k_z**2 * c2 / (2.0 * params.mass * params.omega**2)
    excitation = 0.5 * (1.0 - np.exp(-exponent))
    return float(excitation) if excitation.ndim == 0 else excitation


def infer_k_z(
    e_max: float,
    omega: float,
    n_pulses: int,
    temperature: float,
    mass: float,
) -> float:
    """The axial wavevector giving the peak excitation ``e_max``: ``thermal_excitation``
    inverted at T_wait = pi / omega, where C^2 = 4 (n_pulses + 1)^2."""
    if not 0.0 < e_max < 0.5:
        raise ValueError("peak excitation must lie strictly between 0 and 1/2 (model saturates at 1/2)")
    if temperature <= 0:
        raise ValueError("temperature must be positive to infer a tilt")
    exponent = -np.log(1.0 - 2.0 * e_max)
    return float(
        np.sqrt(exponent * mass * omega**2 / (2.0 * KB * temperature * (n_pulses + 1) ** 2))
    )


def infer_tilt(
    e_max: float,
    omega: float,
    n_pulses: int,
    temperature: float,
    mass: float,
    k_total: float,
) -> float:
    """Wavefront tilt angle (rad) explaining a measured peak excitation."""
    k_z = infer_k_z(e_max, omega, n_pulses, temperature, mass)
    if k_z > k_total:
        raise ValueError("inferred k_z exceeds the full wavevector")
    return float(np.arcsin(k_z / k_total))


def temperature_from_nbar(nbar: float, omega: float) -> float:
    """Temperature whose mean thermal energy equals (nbar + 1/2) hbar w."""
    return HBAR * omega * (nbar + 0.5) / KB


@dataclass(frozen=True)
class SpinMotionParams:
    """Inputs of the quantum spin-motion solver.

    ``eta`` is the Lamb-Dicke parameter along the motion axis (wavefront
    tilt enters as eta = sin(alpha) k sqrt(hbar/(2 m w))), ``rabi`` and
    ``detuning`` the drive parameters, ``nbar`` the thermal mean phonon
    number, and ``fock_cutoff`` the basis truncation. The limits that
    bind them together with a scan are ``scan_limits``.
    """

    eta: float
    rabi: float
    omega: float
    detuning: float = 0.0
    nbar: float = 0.0
    fock_cutoff: int = 100

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.rabi <= 0 or self.omega <= 0:
            raise ValueError("rabi and omega must be positive")
        if self.nbar < 0:
            raise ValueError("nbar must be >= 0")

    @property
    def pi_time(self) -> float:
        return np.pi / self.rabi


def cutoff_rule(level: float) -> tuple[float, float]:
    """The adequacy rule 5 level + 20, the least cutoff of a thermal scan of mean ``level``, and
    the default cutoff of a scan from mean or Fock level ``level``: the rule floored, plus the
    margin that ``scan_limits`` keeps below the cutoff. Both are inf past the float range."""
    rule = 5 * level + 20
    return rule, np.floor(rule) + _CUTOFF_MARGIN


def scan_limits(params: SpinMotionParams, shortest_wait: float, initial_fock: int | None = None) -> list:
    """The limits of ``quantum_cpmg_scan`` that its inputs break, as (argument, message) pairs:
    every wait at least the pi-time, so that pulses never overlap; a thermal scan's cutoff at least
    ``cutoff_rule``'s adequacy rule; an initial Fock level at least ``_CUTOFF_MARGIN`` below the cutoff."""
    cutoff, period, pi_time = params.fock_cutoff, 2.0 * np.pi / params.omega, params.pi_time
    limits = []
    if shortest_wait < pi_time:
        message = f"{shortest_wait / period:g} periods is shorter than the pi-time of {pi_time / period:g} periods"
        limits.append(("t_wait", message))
    adequate, _ = cutoff_rule(params.nbar)
    if initial_fock is None and cutoff < adequate:
        limits.append(("fock_cutoff", f"{cutoff} is below the adequacy rule 5*nbar + 20 = {adequate:g}"))
    if initial_fock is not None and not 0 <= initial_fock <= cutoff - _CUTOFF_MARGIN:
        message = f"{initial_fock} must lie in [0, {cutoff - _CUTOFF_MARGIN}], {_CUTOFF_MARGIN} below the cutoff"
        limits.append(("initial_fock", message))
    return limits


@dataclass(frozen=True)
class QuantumScanResult:
    """Thermal CPMG excitation curve with truncation bookkeeping.

    ``band_width`` is the largest Fock-level distance |n - m| kept in a
    pulse propagator, ``squarings`` the squarings behind the pi-pulse
    propagator (set by the 1-norm of H with its diagonal centred), and ``band_dropped_norm`` a bound on the norm of the
    error that the dropped propagator entries and the products left out
    of the row windows cause in any final state. ``levels`` is the number
    L of Fock levels the scan ran on, at most ``fock_cutoff`` + 1,
    ``first_level`` the lowest of them, and ``column_fill`` the share of
    (slab, state) products of that basis the windows left to compute: 1
    when every slab meets every state. ``stack_bytes`` is the size of the
    one state stack the scan's pulses act on, rows x columns complex
    entries (the first group's, the largest).
    """

    t_wait: np.ndarray
    excitation: np.ndarray
    truncated_weight: float
    max_leak: float
    max_norm_error: float
    band_width: int
    squarings: int
    band_dropped_norm: float
    levels: int
    first_level: int
    column_fill: float
    stack_bytes: int

    def record(self) -> dict:
        """The solver's diagnostics, as logged and summarised."""
        return {
            "max_leak": self.max_leak,
            "max_norm_error": self.max_norm_error,
            "truncated_weight": self.truncated_weight,
            "band_width": self.band_width,
            "squarings": self.squarings,
            "band_dropped_norm": self.band_dropped_norm,
            "levels": self.levels,
            "first_level": self.first_level,
            "stack_bytes": self.stack_bytes,
            "column_fill": self.column_fill,
        }


def _prune(m: sparse.csr_matrix) -> tuple[sparse.csr_matrix, float]:
    """``m`` without its entries below the drop floor, and their Frobenius norm."""
    small = np.abs(m.data) < _DROP_FLOOR
    dropped = float(np.linalg.norm(m.data[small]))
    m.data[small] = 0.0
    m.eliminate_zeros()
    return m, dropped


def _square(u: sparse.csr_matrix, bound: float) -> tuple[sparse.csr_matrix, float]:
    """u @ u and its error bound: for unitary U and error E, (U+E)^2 - U^2
    is at most 2|E| + |E|^2, plus the entries this product drops. The
    bound saturates to inf rather than overflowing."""
    u, dropped = _prune(u @ u)
    return u, 2.0 * bound + bound * bound + dropped


def _squarings(norm: float) -> int:
    """The squarings that bring a generator of 1-norm ``norm`` to 1-norm at most 1.
    A norm that is not finite raises ``IonstringError``."""
    if not np.isfinite(norm):
        raise IonstringError(f"generator 1-norm {norm} is not finite: the pulse propagators are out of range")
    return max(0, int(np.ceil(np.log2(max(norm, 1.0)))))


def _banded_expm(b: sparse.spmatrix, unit: complex) -> tuple[sparse.csr_matrix, int, float]:
    """exp(unit b) of a sparse real b by scaling and squaring, for unit 1
    (b antisymmetric) or -1j (b symmetric).

    Taylor terms (b / 2^s)^k / k!, scaled to 1-norm <= 1, run in real
    arithmetic until a term has no entry left above the drop floor. Even
    and odd terms are summed apart, each with the sign of unit^k, and
    joined once as even + unit odd; s squarings follow (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31, 970 (2009)). Returns the exponential,
    s, and a bound on the Frobenius norm of its error from every dropped
    entry. A b whose 1-norm is not finite raises ``IonstringError``.
    """
    b = sparse.csr_matrix(b)
    if np.iscomplexobj(b.data):
        raise TypeError("_banded_expm takes a real generator; its phase goes in unit")
    squarings = _squarings(float(abs(b).sum(axis=0).max()))
    b = b / 2.0**squarings
    # unit^k is (unit^2)^(k // 2) on even terms and unit times that on odd ones
    sign = (unit * unit).real
    term = sparse.identity(b.shape[0], format="csr")
    sums, bound, order = [term, sparse.csr_matrix(b.shape)], 0.0, 0
    while term.nnz:
        order += 1
        term = term @ b
        term.data *= (sign if order % 2 == 0 else 1.0) / order
        term, dropped = _prune(term)
        sums[order % 2] = sums[order % 2] + term
        bound += dropped
    result = sums[0] + unit * sums[1]
    for _ in range(squarings):
        result, bound = _square(result, bound)
    return result, squarings, bound


def _add_band(total: np.ndarray, band: np.ndarray) -> np.ndarray:
    """``total`` + ``band``, two bands of diagonals (see ``_displacement``)
    aligned on their main diagonals; ``total`` is summed into in place
    unless ``band`` is the wider."""
    if band.shape[0] > total.shape[0]:
        total, band = band.copy(), total
    pad = (total.shape[0] - band.shape[0]) // 2
    total[pad : total.shape[0] - pad] += band
    return total


def _displacement(eta: float, first: int, dim: int) -> tuple[sparse.csr_matrix, float]:
    """D = exp(eta (a+ - a)) on the Fock levels [first, first + ``dim``), and
    the bound on its error: the steps of ``_banded_expm`` of the truncated
    generator with unit 1, with its Taylor terms run on diagonals.

    The generator holds c_j = eta sqrt(first + j + 1) at (j + 1, j) and
    -c_j at (j, j + 1). A term is kept as its band of diagonals, row
    K + o holding the term's entry (j - o, j) at column j, so its product
    with the generator is two shifted products with c: each entry is the
    same two products summed and scaled by 1/k as in the sparse product,
    so the terms and their sums equal the sparse ones entry for entry.
    Terms lose entries below the drop floor, with their norm added to
    the bound. The squarings, where the generator's 1-norm passes 1,
    run on the sparse sum with its indices sorted, so they round
    differently from ``_banded_expm``'s.
    """
    column_sums = np.zeros(dim)
    # an eta past the float range gives an inf generator, which _squarings refuses by name
    with np.errstate(over="ignore"):
        c = eta * np.sqrt(np.arange(first + 1.0, first + dim))
        column_sums[1:] += c
        column_sums[:-1] += c
    squarings = _squarings(float(column_sums.max()))
    c = c / 2.0**squarings
    term = np.ones((1, dim))
    sums, bound, order = [term, np.zeros((1, dim))], 0.0, 0
    while True:
        order += 1
        step = np.zeros((term.shape[0] + 2, dim))
        step[2:, 1:] -= term[:, :-1] * c
        step[:-2, :-1] += term[:, 1:] * c
        step *= 1.0 / order
        small = np.abs(step) < _DROP_FLOOR
        bound += float(np.linalg.norm(step[small]))
        step[small] = 0.0
        offsets = np.flatnonzero(step.any(axis=1)) - step.shape[0] // 2
        if not offsets.size:
            break
        # the outermost diagonals left with no entry are dropped
        half = int(np.abs(offsets).max())
        term = step[step.shape[0] // 2 - half : step.shape[0] // 2 + half + 1]
        sums[order % 2] = _add_band(sums[order % 2], term)
    band = _add_band(*sums)
    # the band is scipy's DIA layout; its CSR form keeps the nonzero entries, sorted
    d = sparse.dia_matrix((band, np.arange(band.shape[0]) - band.shape[0] // 2), shape=(dim, dim)).tocsr()
    for _ in range(squarings):
        d, bound = _square(d, bound)
    return d, bound


def _pulse_hamiltonian(params: SpinMotionParams, first: int, dim: int):
    """The real pulse Hamiltonian on the Fock levels [first, first + ``dim``),
    in the (n, +/-) basis, levels interleaved, as CSR arrays written
    directly.

    In the gauge G = diag(i^n) x 1 the displacement exp(i eta (a + a+))
    becomes the rotation D = exp(eta (a+ - a)), and H turns real
    symmetric. Its diagonal is w (n + 1/2), centred on its midpoint, which
    drops a global phase no population sees and halves the 1-norm. In the
    eigenbasis |n, +/-> = (|n, up> +/- (-1)^n |n, down>) / sqrt(2) of the
    parity (-1)^n sigma_x, H holds +/-K inside each sector, with
    K = (rabi/4)(D P + P D^T) and P = diag((-1)^n), and -detuning/2
    between |n, +> and |n, ->, so at zero detuning the sectors decouple.
    H is built there directly, so no roundoff couples the sectors. Each
    entry is the sum the sparse operator algebra of that formula forms.

    Returns H, the free evolution between pulses as the diagonal of the
    (n, spin) basis, spin up first, the error bound of D (see
    ``_displacement``), and H's band width in levels.
    """
    displacement, d_bound = _displacement(params.eta, first, dim)
    rows = np.repeat(np.arange(dim), np.diff(displacement.indptr))
    cols = displacement.indices
    half = int(np.max(np.abs(cols - rows), initial=0))
    # D[i, i + o] and D[i + o, i] at [i, half + o]
    ahead, behind = np.zeros((2, dim, 2 * half + 1))
    ahead[rows, cols - rows + half] = displacement.data
    behind[cols, rows - cols + half] = displacement.data
    n, offsets = first + np.arange(dim), np.arange(-half, half + 1)
    k = 0.25 * params.rabi * (ahead * (-1.0) ** (n[:, None] + offsets) + behind * (-1.0) ** n[:, None])
    levels = params.omega * (n + 0.5)
    # [i, spin of the row, half + o, spin of the column]
    h = np.zeros((dim, 2, 2 * half + 1, 2))
    h[:, 0, :, 0], h[:, 1, :, 1] = k, -k
    h[:, :, half, :] += np.eye(2) * (levels - 0.5 * (levels[0] + levels[-1]))[:, None, None]
    h[:, 0, half, 1] = h[:, 1, half, 0] = -0.5 * params.detuning
    kept = h != 0.0
    columns = 2 * (np.arange(dim)[:, None, None, None] + offsets[:, None]) + np.arange(2)
    indptr = np.concatenate([[0], np.cumsum(kept.reshape(2 * dim, -1).sum(axis=1))])
    h_csr = sparse.csr_matrix((h[kept], np.broadcast_to(columns, h.shape)[kept], indptr), shape=(2 * dim, 2 * dim))
    # one axis at a time: numpy reduces over several axes at once far more slowly
    used = kept.reshape(2 * dim, -1, 2).any(axis=0).any(axis=1)
    band_width = int(np.max(np.abs(np.flatnonzero(used) - half), initial=0))
    free = np.add.outer(levels, [-0.5 * params.detuning, 0.5 * params.detuning]).ravel()
    return h_csr, free, d_bound, band_width


def _axis_phases(rows: int, phase: float) -> np.ndarray:
    """Diagonal of W = diag(e^(-i phase/2), e^(i phase/2)) per level."""
    return np.tile(np.exp([-0.5j * phase, 0.5j * phase]), rows // 2)


def _spin_slabs(u: sparse.csr_matrix, first: int) -> tuple[tuple[np.ndarray, list[np.ndarray]], int, float]:
    """A propagator u on the Fock levels from ``first``, from the (n, +/-)
    basis to the (n, spin) basis, as the slabs that ``_apply`` multiplies:
    one vectorized pass over u's CSR arrays.

    The map is Q u Q^T, Q = diag(1, (-1)^n) (1 x [[1, 1], [1, -1]]) / sqrt(2)
    per level, which is orthogonal and so carries every error bound over
    unchanged. u's 2 x 2 level blocks are gathered by level distance and
    combined over rows, then over columns, with entries +/-1 and one
    factor 1/2; entries below the drop floor are pruned. The rows of
    each ``_SLAB_ROWS``-row slab are laid out dense by column, and its
    block is the column span holding its entries.

    Returns the [start, stop) column spans and the blocks, the band
    width (the largest level distance |n - m| kept), and the Frobenius
    norm of the pruned entries.
    """
    rows = np.repeat(np.arange(u.shape[0]), np.diff(u.indptr))
    half = int(np.max(np.abs(u.indices // 2 - rows // 2), initial=0))
    width = 2 * half + 1
    slabs = -(-u.shape[0] // _SLAB_ROWS)
    # [i, row spin, half + j - i, column spin] holds u[2i + row spin, 2j + column spin];
    # the levels past the basis fill the last slab with zeros
    spin = np.zeros((slabs * _SLAB_LEVELS, 2, width, 2), dtype=u.dtype)
    spin.reshape(-1)[rows * (2 * width - 1) + rows % 2 + u.indices + 2 * half] = u.data
    signs = (-1.0) ** (first + np.arange(spin.shape[0]))
    up, down = spin[:, 0], spin[:, 1]
    rest = up - down
    up += down
    np.multiply(rest, signs[:, None, None], out=down)
    left, right = spin[..., 0], spin[..., 1]
    rest = left - right
    left += right
    np.multiply(rest, np.multiply.outer(signs, (-1.0) ** (half + np.arange(width)))[:, None], out=right)
    spin *= 0.5
    small = np.abs(spin) < _DROP_FLOOR
    dropped = float(np.linalg.norm(spin[small]))
    spin[small] = 0.0
    distances = np.flatnonzero((~small).reshape(-1, width, 2).any(axis=0).any(axis=1)) - half
    band_width = int(np.max(np.abs(distances), initial=0))
    # row r of slab s at its columns 2 (r // 2) + k, the (n, spin) column 32 s - 2 half of the first
    strips = np.zeros((slabs, _SLAB_ROWS, _SLAB_ROWS - 2 + 2 * width), dtype=u.dtype)
    strip_rows = np.arange(_SLAB_ROWS)[:, None]
    strips[:, strip_rows, 2 * (strip_rows // 2) + np.arange(2 * width)] = spin.reshape(slabs, _SLAB_ROWS, -1)
    filled = strips.any(axis=1)
    lo = np.argmax(filled, axis=1)
    hi = filled.shape[1] - np.argmax(filled[:, ::-1], axis=1)
    height = np.minimum(_SLAB_ROWS, u.shape[0] - _SLAB_ROWS * np.arange(slabs))
    blocks = [strip[:top, a:b] for strip, top, a, b in zip(strips, height, lo, hi)]
    offset = _SLAB_ROWS * np.arange(slabs) - 2 * half
    return (np.stack([lo + offset, hi + offset], axis=1), blocks), band_width, dropped


def _stack(rows: int, columns: int) -> tuple[np.ndarray, list]:
    """A zero state stack for ``_open`` and ``_apply``, and the [first, stop)
    column range that each slab's rows were last written in: none yet."""
    return np.zeros((rows, columns), dtype=complex), [(0, 0)] * -(-rows // _SLAB_ROWS)


def _write(psi: np.ndarray, written: list, s: int, first: int, stop: int, part: np.ndarray | None) -> None:
    """``part`` written over slab s's rows of the stack at the columns
    [first, stop), the rest of the range they were last written in zeroed,
    so that the rows hold zeros outside the range ``written`` records (an
    empty range as (0, 0))."""
    rows = psi[s * _SLAB_ROWS : (s + 1) * _SLAB_ROWS]
    old_first, old_stop = written[s]
    if old_first < min(old_stop, first):
        rows[:, old_first : min(old_stop, first)] = 0.0
    if max(old_first, stop) < old_stop:
        rows[:, max(old_first, stop) : old_stop] = 0.0
    if first < stop:
        rows[:, first:stop] = part
    written[s] = (first, stop) if first < stop else (0, 0)


def _windows(kept: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The row windows of a stack's columns, from the first to the last slab
    whose product holds an entry at or above the floor; all rows if none does."""
    lo = _SLAB_ROWS * np.argmax(kept, axis=0)
    hi = np.minimum(_SLAB_ROWS * (kept.shape[0] - np.argmax(kept[::-1], axis=0)), rows)
    return lo, hi


def _open(half, down: np.ndarray, phases: np.ndarray, psi: np.ndarray, written: list):
    """The first pi/2-pulse on the states |down>, written into the stack
    ``psi`` (see ``_stack``) as a column per (state, wait), level-major: each
    state's column of the pi/2-pulse slabs ``half``, gathered, times each
    wait's column of ``phases``.

    A gather is exact: the product with a unit column multiplies by 1 and
    adds zeros. A slab gathers the states whose level lies in its column
    span, the columns ``_apply`` would multiply. Returns the stack's row
    windows (see ``_windows``).
    """
    spans, blocks = half
    waits = phases.shape[1]
    firsts = np.searchsorted(down, spans[:, 0])
    stops = np.searchsorted(down, spans[:, 1])
    kept = np.zeros((len(blocks), down.size), dtype=bool)
    for s, (c0, first, stop) in enumerate(zip(spans[:, 0].tolist(), firsts.tolist(), stops.tolist())):
        part = blocks[s][:, down[first:stop] - c0]
        kept[s, first:stop] = np.abs(part).max(axis=0) >= _DROP_FLOOR
        part = phases[s * _SLAB_ROWS : (s + 1) * _SLAB_ROWS, None] * part[..., None]
        _write(psi, written, s, waits * first, waits * stop, part.reshape(part.shape[0], -1))
    lo, hi = _windows(kept, psi.shape[0])
    return np.repeat(lo, waits), np.repeat(hi, waits)


def _apply(slabs, psi: np.ndarray, written: list, lo: np.ndarray, hi: np.ndarray, phases: np.ndarray | None = None):
    """The slabs applied in place to the stack ``psi`` (see ``_stack``)
    inside the row windows [lo[j], hi[j]) of its columns (see
    ``quantum_cpmg_scan``), each slab's product then multiplied by its
    rows of ``phases``, a column per stack column or one shared by all, or
    by none.

    A slab's product is held until every later slab whose column span
    reads the slab's rows has run, a lag read off the spans, then written
    over its rows (see ``_write``). Returns the windows of the product
    (see ``_windows``) and the number of (slab, column) products
    computed.
    """
    spans, blocks = slabs
    lo = np.minimum.accumulate(lo[::-1])[::-1]
    hi = np.maximum.accumulate(hi)
    firsts = np.searchsorted(hi, spans[:, 0], side="right")
    stops = np.maximum(np.searchsorted(lo, spans[:, 1]), firsts)
    spans = spans.tolist()
    # slab t reads the rows of the slabs from spans[t][0] // _SLAB_ROWS on
    lag = max(t - c0 // _SLAB_ROWS for t, (c0, _) in enumerate(spans))
    shared = phases is not None and phases.shape[1] == 1
    kept = np.zeros((len(blocks), psi.shape[1]), dtype=bool)
    held = []
    for s, ((c0, c1), first, stop) in enumerate(zip(spans, firsts.tolist(), stops.tolist())):
        if first < stop:
            part = blocks[s] @ psi[c0:c1, first:stop]
            kept[s, first:stop] = np.abs(part).max(axis=0) >= _DROP_FLOOR
            if phases is not None:
                rows = phases[s * _SLAB_ROWS : (s + 1) * _SLAB_ROWS]
                # the phases first, as in _open: numpy's complex product is not symmetric to the last bit
                np.multiply(rows if shared else rows[:, first:stop], part, out=part)
            held.append((s, first, stop, part))
        elif written[s][0] < written[s][1]:
            held.append((s, first, stop, None))
        while held and held[0][0] + lag <= s:
            _write(psi, written, *held.pop(0))
    for slab in held:
        _write(psi, written, *slab)
    return *_windows(kept, psi.shape[0]), int((stops - firsts).sum())


def _populations(psi: np.ndarray) -> np.ndarray:
    """Column sums of |psi|^2 from its real and imaginary views, with no temporary the size of ``psi``."""
    return np.einsum("ij,ij->j", psi.real, psi.real) + np.einsum("ij,ij->j", psi.imag, psi.imag)


def _check_range(name: str, error: float) -> None:
    """Raise when an error measure of the scan exceeds the leak tolerance or is NaN."""
    if not error <= _LEAK_TOL:
        raise IonstringError(
            f"{name} {error:.2e} exceeds {_LEAK_TOL:.0e}: the pulse propagators are out of range"
        )


def quantum_cpmg_scan(
    params: SpinMotionParams, n_pulses: int, t_wait_values, initial_fock: int | None = None
) -> QuantumScanResult:
    """Excitation vs pi-pulse spacing for the full quantum model.

    The pulses are centred on ``wavefront_train``: consecutive centres,
    pi/2-pulses included, are ``t_wait`` apart, and ``t_wait`` is at least
    the pi-time. Each free gap is the wait less half of each neighbouring
    pulse: t_wait - 3 t_pi / 4 next to a pi/2-pulse, t_wait - t_pi between
    pi-pulses.
    Pulses rotate about +/-x alternately, the embedding pi/2-pulses
    about -y and +y, all with the finite duration pi/rabi (pi/2-pulses
    half of it). Only the pi/2- and pi-pulse propagators about +x are
    built; each axis enters as the phases diag(e^(-i p/2), e^(i p/2))
    that conjugate them, folded into the free evolution before each
    pulse.

    Initial states are Fock states |down, n> weighted by a thermal
    distribution of mean ``nbar``, truncated once its cumulative weight
    reaches 1 - 1e-4 (or at the cutoff margin, whichever is lower) and
    renormalized; the clipped weight is reported, never silently
    dropped. Passing ``initial_fock`` evolves that single Fock state
    instead.

    The scan runs on the Fock levels [first, first + L) that its states
    reach, not on all ``fock_cutoff`` + 1. The basis starts 64 levels
    below the lowest initial level and ends 64 above the top one, in
    whole slabs of 16 levels, inside [0, ``fock_cutoff`` + 1); so a
    thermal scan, or a Fock level below 64, starts at level 0. At an
    edge of the basis that is not an edge of [0, ``fock_cutoff`` + 1), a
    state's window must stay one band width and one slab away from it:
    the initial levels are checked once H is built and once the
    propagators are, before any pulse, and every window after every
    pulse. Where a check fails, the basis grows by L levels past each
    edge a state came near (clipped to [0, ``fock_cutoff`` + 1), the
    bottom in whole slabs), and the scan starts again on the larger
    basis. So the edge slabs of a basis inside the cutoff hold only
    entries below the drop floor, and a smaller basis changes only
    roundoff. ``first_level`` and ``levels`` report the final basis.

    A scan's waits go through the pulses together, in groups of
    max(1, 32 // states) waits, each group in one stack of 2 L rows and
    a column per (state, wait), level-major, each column with the free
    phases of its wait; so a one-state scan of up to 32 waits makes one
    windowed product per pulse, and a thermal scan runs one wait at a
    time in one stack of 2 L x states entries (``stack_bytes``). Each
    column keeps a row window that holds all its entries at or above
    the drop floor 1e-20. The first pi/2-pulse gathers each state's
    column |down, n> of its propagator, for every wait, which is exact.
    Each later pulse updates the stack in place: sorted by initial Fock
    level, the windows (made non-decreasing) that meet a slab's column
    span form one range of columns, found by bisection, and the slab
    multiplies only that range. The free evolution and axis phases
    before the next pulse are applied to each 32-row product, which is
    then written over its rows once the slabs that read their old
    entries have run. Every skipped product involves only sub-floor
    entries, so each of the n_pulses + 1 windowed pulses per wait adds
    at most 1e-20 sqrt(2 L) per state to ``band_dropped_norm``.
    ``column_fill`` counts those pulses only, over the slabs of the
    L-level basis.

    Raises
    ------
    ValueError
        If the inputs violate ``scan_limits``, before any propagator is built.
    FockCutoffError
        If population at the truncation boundary exceeds 1e-6; only a
        basis that ends at the cutoff can hold that much there.
    IonstringError
        If ``band_dropped_norm`` (checked before the first wait) or the
        norm error of the states at any wait exceeds 1e-6: the detuning
        or eta is past what the propagators resolve.
    """
    t_wait = np.atleast_1d(np.asarray(t_wait_values, dtype=float))
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    limits = scan_limits(params, t_wait.min(), initial_fock)
    if limits:
        raise ValueError("; ".join(f"{argument}: {message}" for argument, message in limits))

    if initial_fock is not None:
        init_levels = np.array([initial_fock])
        weights = np.ones(1)
        truncated = 0.0
    else:
        hard_cap = max(0, params.fock_cutoff - _CUTOFF_MARGIN)
        w_full = (params.nbar / (params.nbar + 1.0)) ** np.arange(hard_cap + 1) / (params.nbar + 1.0)
        cumulative = np.cumsum(w_full)
        hits = np.nonzero(cumulative >= 1.0 - _THERMAL_TAIL)[0]
        n_top = int(hits[0]) if hits.size else hard_cap
        weights = w_full[: n_top + 1]
        truncated = float(1.0 - weights.sum())
        weights = weights / weights.sum()
        init_levels = np.arange(n_top + 1)

    dim = params.fock_cutoff + 1
    first = max(0, _SLAB_LEVELS * ((int(init_levels[0]) - _REACH) // _SLAB_LEVELS))
    stop = min(dim, _SLAB_LEVELS * -(-(int(init_levels[-1]) + 1 + _REACH) // _SLAB_LEVELS))
    while not isinstance(result := _sized_scan(params, n_pulses, t_wait, init_levels, weights, truncated, first, stop),
                         QuantumScanResult):
        low, high = result
        size = stop - first
        if low:
            first = max(0, _SLAB_LEVELS * ((first - size) // _SLAB_LEVELS))
        if high:
            stop = min(dim, stop + size)
    logger.debug("quantum_cpmg_scan: %s", result.record())
    return result


def _sized_scan(params, n_pulses, t_wait, init_levels, weights, truncated, first, stop):
    """The scan of ``quantum_cpmg_scan`` on the Fock levels [``first``, ``stop``),
    or, once a state comes within one band width and one slab of an edge
    of the basis inside the cutoff, whether it came near the bottom and
    the top."""
    t_pi = params.pi_time
    levels = stop - first

    def near(lo, hi, band_width: int) -> tuple[bool, bool]:
        margin = 2 * (band_width + _SLAB_LEVELS)
        return first > 0 and np.min(lo) < margin, stop <= params.fock_cutoff and np.max(hi) > 2 * levels - margin

    h, free, d_bound, h_width = _pulse_hamiltonian(params, first, levels)
    # an error E in D perturbs H by rabi/sqrt(2) |E| and U(t) by t times
    # that; a D out of range may hold NaN, so it is checked before H is
    # exponentiated
    d_error = 0.5 * t_pi * params.rabi / np.sqrt(2.0) * d_bound
    _check_range("band_dropped_norm", 2.0 * d_error)
    # U's first-order term is -i t H, so a basis too small for H's band is left before U is built
    initial = 2 * (int(init_levels[0]) - first), 2 * (int(init_levels[-1]) - first) + 2
    if any(edges := near(*initial, h_width)):
        return edges
    u_half, squarings, half_bound = _banded_expm(0.5 * t_pi * h, -1j)
    del h
    half_bound += d_error
    u_pi, pi_bound = _square(u_half, half_bound)
    (half, half_width, half_dropped), (pi, pi_width, pi_dropped) = _spin_slabs(u_half, first), _spin_slabs(u_pi, first)
    del u_half, u_pi
    # what a windowed pulse leaves out acts on sub-floor entries only, in
    # at most the 2 * levels rows of each state
    window_bound = (n_pulses + 1) * _DROP_FLOOR * np.sqrt(2.0 * levels)
    band_dropped_norm = float(
        2.0 * (half_bound + half_dropped) + n_pulses * (pi_bound + pi_dropped) + window_bound
    )
    _check_range("band_dropped_norm", band_dropped_norm)
    band_width = max(half_width, pi_width)
    if any(edges := near(*initial, band_width)):
        return edges
    # The pulse about the axis at phase p is W u W^dag (see _axis_phases),
    # so conj(W_k) W_(k-1) joins the free evolution before pulse k. The
    # first W^dag only multiplies each |down, n> by a phase and the last W
    # each amplitude; the populations read below see neither. The same
    # holds for the gauge G of the propagators (see _pulse_hamiltonian),
    # which is diagonal and so commutes with every phase: the scan runs in
    # the gauge and never applies G.
    rows = 2 * levels
    axes = np.pi * np.array([1.5, *(np.arange(n_pulses) % 2), 0.5])  # -y, +x/-x ..., +y
    turns = [_axis_phases(rows, before - after)[:, None] for before, after in zip(axes[:-1], axes[1:])]
    down = 2 * (init_levels - first) + 1
    states = down.size
    excitation = np.empty(t_wait.shape)
    max_leak = 0.0
    max_norm_error = 0.0
    computed = 0
    # one stack per group: a group of several waits has at most 32 columns,
    # so only a thermal scan's stack is large, and every group of it has
    # the same size
    stack, stack_bytes = None, 0
    group = max(1, _SLAB_ROWS // states)
    rates = (-1j * free)[:, None]
    for start in range(0, t_wait.size, group):
        waits = t_wait[start : start + group]
        columns = states * waits.size
        if stack is None or stack[0].shape[1] != columns:
            stack = _stack(rows, columns)
            stack_bytes = max(stack_bytes, stack[0].nbytes)
        psi = stack[0]
        end_gap, inner_gap = np.exp(rates * (waits - 0.75 * t_pi)), np.exp(rates * (waits - t_pi))
        gaps = [end_gap] + [inner_gap] * (n_pulses - 1) + [end_gap]
        # the pi/2 pulse about -y on the initial states |down, n>, for every
        # wait, times the free evolution and axis phases before the next pulse
        lo, hi = _open(half, down, gaps[0] * turns[0], *stack)
        if any(edges := near(lo, hi, band_width)):
            return edges
        for k in range(n_pulses + 1):
            slabs, phases = (pi, gaps[k + 1] * turns[k + 1]) if k < n_pulses else (half, None)
            # a pulse's product takes the phases before the next pulse, the last none; each state's
            # waits take the group's phases in turn, and one wait's phases serve every column
            if phases is not None and waits.size > 1:
                phases = np.tile(phases, states)
            lo, hi, pairs = _apply(slabs, *stack, lo, hi, phases)
            if any(edges := near(lo, hi, band_width)):
                return edges
            computed += pairs

        norm_error = float(np.max(np.abs(_populations(psi) - 1.0)))
        _check_range("max_norm_error", norm_error)
        max_norm_error = max(max_norm_error, norm_error)
        # the top two Fock levels of both spins
        leak = float(np.max(np.sum(np.abs(psi[-4:, :]) ** 2, axis=0)))
        max_leak = max(max_leak, leak)
        if leak > _LEAK_TOL:
            raise FockCutoffError(
                f"population {leak:.2e} at the Fock-basis boundary exceeds "
                f"{_LEAK_TOL:.0e}; increase fock_cutoff beyond {params.fock_cutoff}"
            )
        excitation[start : start + waits.size] = weights @ _populations(psi[0::2]).reshape(states, waits.size)

    column_fill = computed / (t_wait.size * (n_pulses + 1) * len(half[1]) * states)
    return QuantumScanResult(
        t_wait=t_wait,
        excitation=excitation,
        truncated_weight=truncated,
        max_leak=max_leak,
        max_norm_error=max_norm_error,
        band_width=band_width,
        squarings=squarings + 1,
        band_dropped_norm=band_dropped_norm,
        levels=levels,
        first_level=first,
        column_fill=column_fill,
        stack_bytes=stack_bytes,
    )
