"""Wavefront probing of hot axial motion with CPMG sequences.

Semiclassical model: an ion oscillating along the trap axis sees a
phase-modulated drive whenever the beam's wavevector has a component
k_z along the axis. A train of N_p alternating pi-pulses separated by
T_wait accumulates the phase

    Phi = k_z a [ sin(w t_i) A_Np(x) + cos(w t_i) B_Np(x) ],  x = w T_wait,

with trigonometric coefficient sums A_Np, B_Np, and excites the qubit
to (1 - cos Phi)/2. Averaging over a thermal motional distribution at
temperature T gives

    e = 1/2 (1 - exp(-kB T k_z^2 C^2 / (2 m w^2))),   C^2 = A^2 + B^2,

where C^2 also has the closed form
4 (sin((Np+1)(x+pi)/2) / tan((x+pi)/2))^2, peaking at 4 (Np+1)^2 for x
an odd multiple of pi.

Quantum model: a two-level system coupled to one harmonic mode through
H = w (a+ a + 1/2) + (Omega/2)(e^(i eta (a + a+)) s+ e^(-i Delta t)
+ h.c.), evolved exactly through the finite-duration pulse train in a
truncated Fock basis and averaged over a thermal distribution. This
reproduces the intermediate peaks at full trap periods that appear
when Omega is comparable to the trap frequency.

The pulse propagators are banded in Fock space, since one pulse moves a
state by only about pi eta sqrt(n) levels. Only two are built, for the
pi/2- and pi-pulses about +x, once and sparse, by scaling and squaring
that drops only entries below 1e-20; the norm of what is dropped bounds
the error and is reported. A pulse about another axis is one of them
conjugated by a diagonal phase matrix, which joins the free evolution
applied before each pulse, so every drive axis is a phase. Each pulse acts
on the stack of states as dense row-block slabs. Every state keeps a
row window that holds all of its entries at or above 1e-20, a few
slabs around its initial Fock level, and a slab multiplies only the
states whose windows meet its column span, so a pulse costs
O(window x band) per state instead of O(cutoff x band). The products
left out hold only entries below 1e-20; their norm, at most
1e-20 sqrt(2 (cutoff + 1)) per state and pulse, is added to the bound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import eval_chebyu

from ionstring.constants import HBAR, KB
from ionstring.errors import FockCutoffError

_CUTOFF_MARGIN = 50
_THERMAL_TAIL = 1e-4  # thermal weight left out above the highest initial Fock level
_LEAK_TOL = 1e-6  # population allowed in the top two Fock levels
# Propagator entries below this magnitude are dropped; their norm is reported.
_DROP_FLOOR = 1e-20
_SLAB_ROWS = 32

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


def phase_coefficients(n_pulses: int, x) -> PhaseCoefficients:
    """Coefficient sums of the accumulated phase at x = omega * T_wait.

    ``c2`` comes from the direct trigonometric sums, ``c2_closed`` from
    the closed form, evaluated through the Chebyshev identity
    sin((Np+1)u)/sin(u) = U_Np(cos u) so that the removable
    singularities at odd multiples of pi take their limit values.
    """
    x = np.asarray(x, dtype=float)
    n = np.arange(1, n_pulses + 1)
    sign = (-1.0) ** n
    a = (
        1.0
        + 2.0 * np.einsum("n,n...->...", sign, np.cos(np.multiply.outer(n, x)))
        + (-1.0) ** (n_pulses + 1) * np.cos((n_pulses + 1) * x)
    )
    b = (
        2.0 * np.einsum("n,n...->...", sign, np.sin(np.multiply.outer(n, x)))
        + (-1.0) ** (n_pulses + 1) * np.sin((n_pulses + 1) * x)
    )
    u = 0.5 * (x + np.pi)
    ratio = eval_chebyu(n_pulses, np.cos(u)) * np.cos(u)
    return PhaseCoefficients(a=a, b=b, c2=a**2 + b**2, c2_closed=4.0 * ratio**2)


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
    c2 = phase_coefficients(params.n_pulses, params.omega * params.t_wait).c2_closed
    exponent = (
        KB
        * params.temperature
        * params.k_z**2
        * c2
        / (2.0 * params.mass * params.omega**2)
    )
    excitation = 0.5 * (1.0 - np.exp(-exponent))
    return float(excitation) if excitation.ndim == 0 else excitation


def peak_excitation(params: SemiclassicalParams) -> float:
    """Excitation at the C^2 maximum (T_wait at odd half trap periods)."""
    exponent = (
        2.0
        * KB
        * params.temperature
        * params.k_z**2
        * (params.n_pulses + 1) ** 2
        / (params.mass * params.omega**2)
    )
    return float(0.5 * (1.0 - np.exp(-exponent)))


def infer_k_z(
    e_max: float,
    omega: float,
    n_pulses: int,
    temperature: float,
    mass: float,
) -> float:
    """Invert the peak-excitation formula for the axial wavevector."""
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


def curvature_radius(alpha_first: float, alpha_last: float, span: float) -> float:
    """Wavefront curvature radius R = span / |tilt difference|.

    A vanishing tilt difference means flat wavefronts; infinity is
    returned in that case.
    """
    d_alpha = abs(alpha_last - alpha_first)
    if d_alpha == 0.0:
        return float("inf")
    return float(span / d_alpha)


def temperature_from_nbar(nbar: float, omega: float) -> float:
    """Temperature whose mean thermal energy equals (nbar + 1/2) hbar w."""
    return HBAR * omega * (nbar + 0.5) / KB


@dataclass(frozen=True)
class SpinMotionParams:
    """Inputs of the quantum spin-motion solver.

    ``eta`` is the Lamb-Dicke parameter along the motion axis (wavefront
    tilt enters as eta = sin(alpha) k sqrt(hbar/(2 m w))), ``rabi`` and
    ``detuning`` the drive parameters, ``nbar`` the thermal mean phonon
    number, and ``fock_cutoff`` the basis truncation, which must obey
    the adequacy rule cutoff >= 5 nbar + 20.
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
        if self.fock_cutoff < 5 * self.nbar + 20:
            raise ValueError(
                f"fock_cutoff {self.fock_cutoff} violates the adequacy rule "
                f">= 5*nbar + 20 = {5 * self.nbar + 20:.0f}"
            )

    @property
    def pi_time(self) -> float:
        return np.pi / self.rabi


@dataclass(frozen=True)
class QuantumScanResult:
    """Thermal CPMG excitation curve with truncation bookkeeping.

    ``band_width`` is the largest Fock-level distance |n - m| kept in a
    pulse propagator, ``squarings`` the squarings behind the pi-pulse
    propagator, and ``band_dropped_norm`` a bound on the norm of the
    error that the dropped propagator entries and the products left out
    of the row windows cause in any final state. ``column_fill`` is the
    share of (slab, state) products the windows left to compute: 1 when
    every slab meets every state.
    """

    t_wait: np.ndarray
    excitation: np.ndarray
    truncated_weight: float
    max_leak: float
    max_norm_error: float
    fock_cutoff: int
    band_width: int
    squarings: int
    band_dropped_norm: float
    column_fill: float


def _prune(m: sparse.csr_matrix) -> tuple[sparse.csr_matrix, float]:
    """``m`` without its entries below the drop floor, and their Frobenius norm."""
    small = np.abs(m.data) < _DROP_FLOOR
    dropped = float(np.linalg.norm(m.data[small]))
    m.data[small] = 0.0
    m.eliminate_zeros()
    return m, dropped


def _square(u: sparse.csr_matrix, bound: float) -> tuple[sparse.csr_matrix, float]:
    """u @ u and its error bound: for unitary U and error E, (U+E)^2 - U^2
    is at most 2|E| + |E|^2, plus the entries this product drops."""
    u, dropped = _prune(u @ u)
    return u, 2.0 * bound + bound**2 + dropped


def _banded_expm(a: sparse.spmatrix) -> tuple[sparse.csr_matrix, int, float]:
    """exp(a) of a sparse anti-Hermitian matrix by scaling and squaring.

    Taylor steps on a / 2^s, scaled to 1-norm <= 1, run until a term
    has no entry left above the drop floor; s squarings follow
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)).
    Returns the exponential, s, and a bound on the Frobenius norm of
    its error from every dropped entry.
    """
    a = sparse.csr_matrix(a, dtype=complex)
    norm = float(abs(a).sum(axis=0).max())
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1.0)))))
    a = a / 2.0**squarings
    term = sparse.identity(a.shape[0], dtype=complex, format="csr")
    result, bound, order = term, 0.0, 0
    while term.nnz:
        order += 1
        term, dropped = _prune(term @ a / order)
        result = result + term
        bound += dropped
    for _ in range(squarings):
        result, bound = _square(result, bound)
    return result, squarings, bound


def _pulse_hamiltonian(params: SpinMotionParams):
    """Sparse pulse Hamiltonian in interleaved (n, spin) order, spin up first.

    Returns H, its diagonal (the free evolution between pulses) and the
    error bound of the displacement D = exp(i eta (a + a+)), which is
    exponentiated from the truncated ladder operator.
    """
    dim = params.fock_cutoff + 1
    ladder = sparse.diags(np.sqrt(np.arange(1.0, dim)), 1)
    displacement, _, d_bound = _banded_expm(1j * params.eta * (ladder + ladder.T))
    free = np.add.outer(
        params.omega * (np.arange(dim) + 0.5), [-0.5 * params.detuning, 0.5 * params.detuning]
    ).ravel()
    up_down = sparse.csr_matrix(([1.0], ([0], [1])), shape=(2, 2))
    coupling = sparse.kron(0.5 * params.rabi * displacement, up_down)
    h = sparse.diags(free) + coupling + coupling.conj().T
    return h.tocsr(), free, d_bound


def _axis_phases(rows: int, phase: float) -> np.ndarray:
    """Diagonal of W = diag(e^(-i phase/2), e^(i phase/2)) per level."""
    return np.tile(np.exp([-0.5j * phase, 0.5j * phase]), rows // 2)


def _slabs(u: sparse.csr_matrix) -> tuple[np.ndarray, list[np.ndarray]]:
    """The [start, stop) column spans of the ``_SLAB_ROWS``-row blocks of a
    banded matrix, and the blocks, dense over their spans."""
    spans, blocks = [], []
    for start in range(0, u.shape[0], _SLAB_ROWS):
        block = u[start : start + _SLAB_ROWS]
        lo, hi = int(block.indices.min()), int(block.indices.max()) + 1
        spans.append((lo, hi))
        blocks.append(block[:, lo:hi].toarray())
    return np.array(spans), blocks


def _apply(slabs, psi: np.ndarray, lo: np.ndarray, hi: np.ndarray, phases: np.ndarray):
    """The slabs applied to diag(phases) psi inside the row windows
    [lo[j], hi[j]) of its columns (see ``quantum_cpmg_scan``).

    Returns the product, its windows (from the first to the last slab
    whose block holds an entry at or above the floor; all rows if none
    does) and the number of (slab, column) products computed.
    """
    spans, blocks = slabs
    lo = np.minimum.accumulate(lo[::-1])[::-1]
    hi = np.maximum.accumulate(hi)
    firsts = np.searchsorted(hi, spans[:, 0], side="right")
    stops = np.searchsorted(lo, spans[:, 1])
    out = np.zeros_like(psi)
    kept = np.zeros((len(blocks), psi.shape[1]), dtype=bool)
    for s, block in enumerate(blocks):
        (c0, c1), first, stop = spans[s], firsts[s], stops[s]
        if first < stop:
            part = out[s * _SLAB_ROWS : (s + 1) * _SLAB_ROWS, first:stop]
            np.matmul(block, phases[c0:c1, None] * psi[c0:c1, first:stop], out=part)
            kept[s, first:stop] = np.abs(part).max(axis=0) >= _DROP_FLOOR
    new_lo = _SLAB_ROWS * np.argmax(kept, axis=0)
    new_hi = np.minimum(_SLAB_ROWS * (len(blocks) - np.argmax(kept[::-1], axis=0)), psi.shape[0])
    return out, new_lo, new_hi, int(np.maximum(stops - firsts, 0).sum())


def _populations(psi: np.ndarray) -> np.ndarray:
    """Column sums of |psi|^2 from its real and imaginary views, with no temporary the size of ``psi``."""
    return np.einsum("ij,ij->j", psi.real, psi.real) + np.einsum("ij,ij->j", psi.imag, psi.imag)


def _band_width(u: sparse.csr_matrix) -> int:
    rows, cols = u.nonzero()
    return int(np.max(np.abs(rows // 2 - cols // 2)))


def quantum_cpmg_scan(
    params: SpinMotionParams, n_pulses: int, t_wait_values, initial_fock: int | None = None
) -> QuantumScanResult:
    """Excitation vs pi-pulse spacing for the full quantum model.

    The sequence is pi/2 - [wait, pi] x n_pulses - pi/2 with half-length
    free gaps at both ends; ``t_wait`` is the start-to-start separation
    of consecutive pi-pulses, so every value must exceed the pi-time.
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

    The states are evolved as the columns of one stack, each inside a
    row window that holds all its entries at or above the drop floor
    1e-20. Sorted by initial Fock level, the windows (made
    non-decreasing) that meet a slab's column span form one range of
    columns, found by bisection, and the slab multiplies only that
    range; the free evolution and axis phases between pulses are
    applied to the rows each product reads. The first pi/2-pulse acts
    once on the unit columns |down, n> for every wait, and skips only
    exact zeros. Every other skipped product involves only sub-floor
    entries, so each of the n_pulses + 1 windowed pulses per wait adds
    at most 1e-20 sqrt(2 (cutoff + 1)) per state to
    ``band_dropped_norm``. ``column_fill`` counts those pulses only.

    Raises
    ------
    FockCutoffError
        If population at the truncation boundary exceeds 1e-6.
    """
    t_wait = np.atleast_1d(np.asarray(t_wait_values, dtype=float))
    t_pi = params.pi_time
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    if np.any(t_wait < t_pi):
        raise ValueError(
            f"t_wait below the pi-time {t_pi:.3e}; pulses would overlap"
        )

    dim = params.fock_cutoff + 1
    if initial_fock is not None:
        if not 0 <= initial_fock <= params.fock_cutoff - _CUTOFF_MARGIN:
            raise ValueError(
                f"initial Fock state must stay {_CUTOFF_MARGIN} below the cutoff"
            )
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

    h, free, d_bound = _pulse_hamiltonian(params)
    u_half, squarings, half_bound = _banded_expm(-0.5j * t_pi * h)
    # an error E in D perturbs H by rabi/sqrt(2) |E| and U(t) by t times that
    half_bound += 0.5 * t_pi * params.rabi / np.sqrt(2.0) * d_bound
    u_pi, pi_bound = _square(u_half, half_bound)
    band_width = max(_band_width(u_half), _band_width(u_pi))
    half, pi = _slabs(u_half), _slabs(u_pi)
    # The pulse about the axis at phase p is W u W^dag (see _axis_phases),
    # so conj(W_k) W_(k-1) joins the free evolution before pulse k. The
    # first W^dag only multiplies each |down, n> by a phase and the last W
    # each amplitude; the populations read below see neither.
    axes = np.pi * np.array([1.5, *(np.arange(n_pulses) % 2), 0.5])  # -y, +x/-x ..., +y
    turns = [_axis_phases(2 * dim, before - after) for before, after in zip(axes[:-1], axes[1:])]
    # the pi/2 pulse about -y applied to the initial states |down, n>, once
    # for every wait; the unit columns are freed right away, as kept they
    # would raise the peak memory of the scan
    down = 2 * init_levels + 1
    units = np.zeros((2 * dim, down.size), dtype=complex)
    units[down, np.arange(down.size)] = 1.0
    first, first_lo, first_hi, _ = _apply(half, units, down, down + 1, np.ones(2 * dim))
    del units
    # what a windowed pulse leaves out acts on sub-floor entries only, in
    # at most 2 dim rows of each state
    window_bound = (n_pulses + 1) * _DROP_FLOOR * np.sqrt(2.0 * dim)
    band_dropped_norm = 2.0 * half_bound + n_pulses * pi_bound + window_bound

    excitation = np.empty(t_wait.shape)
    max_leak = 0.0
    max_norm_error = 0.0
    computed = 0
    for idx, tw in enumerate(t_wait):
        gap = tw - t_pi
        half_gap, full_gap = np.exp(-1j * free * 0.5 * gap), np.exp(-1j * free * gap)
        gaps = [half_gap] + [full_gap] * (n_pulses - 1) + [half_gap]
        psi, lo, hi = first, first_lo, first_hi
        for k, (free_phases, turn) in enumerate(zip(gaps, turns)):
            psi, lo, hi, pairs = _apply(pi if k < n_pulses else half, psi, lo, hi, free_phases * turn)
            computed += pairs

        # the top two Fock levels of both spins
        leak = float(np.max(np.sum(np.abs(psi[-4:, :]) ** 2, axis=0)))
        max_leak = max(max_leak, leak)
        if leak > _LEAK_TOL:
            raise FockCutoffError(
                f"population {leak:.2e} at the Fock-basis boundary exceeds "
                f"{_LEAK_TOL:.0e}; increase fock_cutoff beyond {params.fock_cutoff}"
            )
        max_norm_error = max(max_norm_error, float(np.max(np.abs(_populations(psi) - 1.0))))
        excitation[idx] = float(weights @ _populations(psi[0::2]))

    column_fill = computed / (t_wait.size * (n_pulses + 1) * len(half[1]) * init_levels.size)
    logger.debug(
        "quantum_cpmg_scan: band half-width %d, %d squarings, dropped-band norm %.3g, "
        "column fill %.3g, max leak %.3g, max norm error %.3g, truncated weight %.3g",
        band_width, squarings + 1, band_dropped_norm, column_fill, max_leak, max_norm_error, truncated,
    )
    return QuantumScanResult(
        t_wait=t_wait,
        excitation=excitation,
        truncated_weight=truncated,
        max_leak=max_leak,
        max_norm_error=max_norm_error,
        fock_cutoff=params.fock_cutoff,
        band_width=band_width,
        squarings=squarings + 1,
        band_dropped_norm=band_dropped_norm,
        column_fill=column_fill,
    )
