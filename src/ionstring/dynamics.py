"""Exact state-vector dynamics of small spin chains.

Basis convention: a basis state is indexed by an integer whose most
significant bit belongs to ion 1. Bit value 0 means spin up
(sigma_z = +1), bit value 1 spin down. States are dense complex
vectors of length 2^N.

Two Hamiltonians are supported: the transverse-field Ising form

    H = sum_{i<j} J_ij sigma^x_i sigma^x_j + B sum_k sigma^z_k

and its large-field effective limit, the XY (flip-flop) form

    H = sum_{i<j} J_ij (sigma^+_i sigma^-_j + sigma^-_i sigma^+_j),

which conserves total magnetization. Propagation sums the Chebyshev
series of the exponential applied to the state, cut where its dropped
terms are bounded below 1e-14, so there is no integrator bias at this
scale.

:func:`evolve_grid` is the one propagation path. It propagates only in
the symmetry sector of the initial state (Sandvik, arXiv:1101.3281).
XY conserves the number of spin-down ions: H is built in that sector
in one vectorised pass and scaled into [-1, 1] by its Gershgorin
discs; a Neel state needs C(N, N/2) states. The coupled Ising model
runs in the sigma^x eigenbasis, where sum J_ij sigma^x_i sigma^x_j is
the diagonal E(c) = sum_{i<j} J_ij s_i s_j and B sigma^z_k flips spin
k. Its conserved Z-parity p flips every spin there, psi(~c) = p psi(c),
so each parity keeps the 2^(N-1) states with ion 1 up, and each row
holds E(c) and N flips. Its spectrum lies in the Weyl enclosure
[min E + min F, max E + max F], F = B (N - 2k) over the spin-down
counts k of the sector, which is never wider than the Gershgorin
interval of the sigma^z sector. The state enters and leaves that basis
by a fast Walsh-Hadamard transform. One Chebyshev recurrence serves
every time of the grid at once (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
3967 (1984)). One Miller table of J_k(r t), 2.2e-16 off against
40-digit values up to r t = 1500, gives its weights, length and
truncation bound. :func:`evolve` is the single-time case.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import blas, hadamard
# Not called by the propagation. perfbench traces dynamics.expm_multiply as
# a scipy entry point, and its tracer test requires every name it counts to
# exist; the import goes when the benchmark counts the Chebyshev kernel.
from scipy.sparse.linalg import expm_multiply  # noqa: F401

from ionstring.coupling import CouplingMatrix
from ionstring.errors import DimensionCapError, IonstringError, PropagationBudgetError

ISING_TRANSVERSE = "ising_transverse"
XY_EFFECTIVE = "xy_effective"

DEFAULT_QUBIT_CAP = 14

# Chebyshev series are cut where the norm of the dropped terms is bounded below this.
TRUNCATION_TOLERANCE = 1e-14
# The most Bessel-table orders, and so Chebyshev terms (matrix-vector
# products), one evolve_grid call may take: about 2400x the longest series
# of the quench benchmark (K about 420). At the measured 0.043 ms per term
# of a two-time 12-ion Ising quench (0.14 ms at 14 ions; x86, one BLAS
# thread) that is about 45 s (2.5 minutes). A 1000 s quench would need
# about 10^8.
MAX_CHEBYSHEV_TERMS = 10**6
# The most Bessel-table (orders x distinct positive times) or state (times
# x 2^N) entries one evolve_grid call may hold: quench runs at this budget
# peak at 0.9 GB (table) to 1.15 GB (states) resident.
MAX_GRID_ENTRIES = 2**25
# Chebyshev vectors added into the outputs per matrix product
_BLOCK = 32
# the real (k even) or imaginary (k odd) part of (-i)^k by k mod 4
_MINUS_I_PARTS = np.array([1.0, -1.0, -1.0, 1.0])

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Coupling matrix plus model choice for :func:`evolve_grid`."""

    coupling: CouplingMatrix
    model: str = ISING_TRANSVERSE

    def __post_init__(self):
        if self.model not in (ISING_TRANSVERSE, XY_EFFECTIVE):
            raise ValueError(f"unknown model {self.model!r}")


def qubit_count(state: np.ndarray) -> int:
    n = int(round(np.log2(state.shape[-1])))
    if 2**n != state.shape[-1]:
        raise ValueError("state length is not a power of two")
    return n


def neel_state(n: int, alignment: str = "odd_up") -> np.ndarray:
    """Alternating-spin computational basis state.

    ``odd_up`` puts ions 1, 3, 5, ... spin-up; ``even_up`` the
    complement.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if alignment not in ("odd_up", "even_up"):
        raise ValueError("alignment must be 'odd_up' or 'even_up'")
    index = 0
    for ion in range(1, n + 1):
        up = (ion % 2 == 1) == (alignment == "odd_up")
        index = (index << 1) | (0 if up else 1)
    state = np.zeros(2**n, dtype=complex)
    state[index] = 1.0
    return state


@functools.lru_cache(maxsize=4)
def _sigma_z_signs(n: int) -> np.ndarray:
    """(2^N, N) read-only array of sigma_z eigenvalues per basis state and ion, built once per N."""
    signs = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1)
    signs.flags.writeable = False
    return signs


def _down_counts(n: int) -> np.ndarray:
    """Number of spin-down ions (set bits) of every basis index below 2^n."""
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        counts = np.concatenate((counts, counts + 1))
    return counts


def _sector_basis(state: np.ndarray, model: str) -> np.ndarray:
    """Sorted basis indices of the smallest sector H keeps closed that holds ``state``."""
    label = _down_counts(qubit_count(state))
    if model == ISING_TRANSVERSE:
        label %= 2
    return np.flatnonzero(np.isin(label, label[state != 0]))


def build_hamiltonian(spec: HamiltonianSpec, basis: np.ndarray | None = None) -> sparse.csr_matrix:
    """Sparse Hamiltonian on ``basis`` in the documented basis ordering.

    ``basis`` is a sorted array of basis indices that H maps into
    itself (a symmetry sector); it defaults to the full 2^N space. An
    Ising H with B != 0 stores a diagonal entry first in every row, any
    other H none; the other columns of a row follow the ion pairs.
    """
    j = spec.coupling.j
    n = j.shape[0]
    basis = np.arange(2**n) if basis is None else np.asarray(basis)
    position = np.full(2**n, -1)
    position[basis] = np.arange(basis.size)
    first, second = np.nonzero(np.triu(j != 0.0, 1))
    masks = (1 << (n - 1 - first)) | (1 << (n - 1 - second))
    values = j[first, second]
    if spec.model == XY_EFFECTIVE:
        # flip-flop only acts where the two spins are anti-aligned
        both = basis[:, None] & masks
        rows, pairs = np.divmod(np.flatnonzero((both != 0) & (both != masks)), masks.size)
        columns, values = position[basis[rows] ^ masks[pairs]], values[pairs]
        counts = np.bincount(rows, minlength=basis.size)
    else:
        values = np.broadcast_to(values, (basis.size, masks.size))
        if spec.coupling.field_b != 0.0:
            # B sum_k sigma^z_k = B (N - 2 * spins down), first in every row (mask 0)
            masks = np.concatenate(([0], masks))
            values = np.column_stack((spec.coupling.field_b * (n - 2 * _down_counts(n)[basis]), values))
        columns = position[basis[:, None] ^ masks]
        counts = np.full(basis.size, masks.size)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sparse.csr_matrix((values.ravel(), columns.ravel(), indptr), shape=(basis.size, basis.size))


def _walsh_hadamard(stack: np.ndarray, bits: int) -> np.ndarray:
    """Each row of ``stack`` Walsh-Hadamard transformed over its lowest ``bits`` index bits, in place and unnormalised.

    The transform is the Sylvester matrix H_(2^bits) = H_(2^a) (x) H_(2^b),
    a + b = bits, applied as two small matrix products. Rows go through
    in chunks of about 2^16 entries, so the products' temporaries stay small.
    """
    rows, size = stack.shape
    low = bits // 2
    left, right = hadamard(2 ** (bits - low)).astype(float), hadamard(2**low).astype(float)
    chunk = max(1, 2**16 // size)
    for start in range(0, rows, chunk):
        block = stack[start : start + chunk].reshape(-1, left.shape[0], right.shape[0])
        block[...] = left @ block @ right
    return stack


def _ising_x_folds(spec: HamiltonianSpec, parities: np.ndarray) -> sparse.csr_matrix:
    """Ising H in the sigma^x eigenbasis, one block of 2^(N-1) rows per Z-parity in ``parities`` (+-1).

    Basis state c of the sigma^x eigenbasis takes the documented bit
    order, bit value 0 for sigma^x = +1. Block p holds the states of
    parity p on the c with ion 1 up: psi(~c) = p psi(c), so a flip of
    ion 1 lands on ~(c ^ 2^(N-1)) = c ^ (2^(N-1) - 1) with the factor p.
    Every row stores E(c) first, then, for B != 0, the flips of ions
    N, ..., 2 and the folded flip of ion 1 (at N = 2 the two flips share
    a column and are summed).
    """
    j = spec.coupling.j
    n = j.shape[0]
    half = 2 ** (n - 1)
    # sigma^x eigenvalues s_i of each kept c, in the sign convention of sigma^z
    spins = _sigma_z_signs(n)[:half]
    energies = np.sum((spins @ np.triu(j, 1)) * spins, axis=1)
    field = spec.coupling.field_b
    masks = np.concatenate(([0], 1 << np.arange(n - 1), [half - 1])) if field else np.zeros(1, dtype=int)
    columns = (np.arange(half)[:, None] ^ masks) + half * np.arange(parities.size)[:, None, None]
    values = np.full(columns.shape, field)
    values[..., 0] = energies
    if field:
        values[..., -1] *= parities[:, None]
    indptr = np.arange(0, values.size + 1, masks.size)
    h = sparse.csr_matrix((values.ravel(), columns.ravel(), indptr), shape=(columns.size // masks.size,) * 2)
    if n == 2 and field:
        # ion 2's flip and ion 1's folded flip reach one column
        h.sum_duplicates()
    return h


def _fold_x(state: np.ndarray, parities: np.ndarray) -> np.ndarray:
    """The sigma^x-basis amplitudes of ``state``, one fold of 2^(N-1) per parity: (phi(c) + p phi(~c)) / sqrt(2)."""
    n = qubit_count(state)
    phi = _walsh_hadamard(np.array(state, dtype=complex)[None], n)[0] * 2.0 ** (-(n + 1) / 2)
    half = phi.size // 2
    return np.concatenate([phi[:half] + p * phi[::-1][:half] for p in parities])


def _unfold_x(folds: np.ndarray, parities: np.ndarray) -> np.ndarray:
    """The full-space sigma^z-basis states of the rows of ``folds``; :func:`_fold_x` inverted."""
    half = folds.shape[1] // parities.size
    n = half.bit_length()
    states = np.zeros((folds.shape[0], 2 * half), dtype=complex)
    for fold, p in zip(np.split(folds, parities.size, axis=1), parities):
        # the transform's step on ion 1 pairs c with c ^ 2^(N-1), which holds p times the amplitude of reversed c
        flipped = p * fold[:, ::-1]
        states[:, :half] += fold
        states[:, :half] += flipped
        states[:, half:] += fold
        states[:, half:] -= flipped
    _walsh_hadamard(states.reshape(-1, half), n - 1)
    states *= 2.0 ** (-(n + 1) / 2)
    return states


@dataclass(frozen=True)
class GridEvolution:
    """States on a time grid, one per time, with the cost of getting them.

    Indexing and iteration give the states, embedded in the full 2^N
    space. ``chebyshev_terms`` is the length K of the Chebyshev series
    summed, 0 when H is diagonal (the states are exact phases) or no
    time is positive; ``truncation_bound`` the bound
    ``2 sum_{k>=K} |J_k(r t_max)|`` on the norm of the terms dropped;
    ``spectral_bounds`` the interval ``(lo, hi)`` holding the spectrum of
    H in the sector that the series is scaled by (the Weyl enclosure for
    a coupled Ising H, the Gershgorin discs otherwise), None when no time
    is positive and no H was built; ``max_norm_error`` the worst
    ``| |psi(t)| / |psi(0)| - 1 |`` over the propagated states, relative
    to the norm of the input (0 when nothing was propagated);
    ``sector_dim`` the dimension of the symmetry sector the state was
    propagated in.
    """

    states: np.ndarray
    chebyshev_terms: int
    truncation_bound: float
    spectral_bounds: tuple[float, float] | None
    max_norm_error: float
    sector_dim: int

    def __getitem__(self, index):
        return self.states[index]

    def __iter__(self):
        return iter(self.states)

    def record(self) -> dict:
        """Every field but the states: the solver's diagnostics, as logged and summarised."""
        return {
            "chebyshev_terms": self.chebyshev_terms,
            "truncation_bound": self.truncation_bound,
            "spectral_bounds": None if self.spectral_bounds is None else list(self.spectral_bounds),
            "max_norm_error": self.max_norm_error,
            "sector_dim": self.sector_dim,
        }


def _bessel_table(z: np.ndarray) -> tuple[np.ndarray, float]:
    """J_k(z) for every z > 0 (rows, ascending) and order k < K (columns), and the bound at K.

    Miller's backward recurrence J_(k-1) = (2k / z) J_k - J_(k+1)
    (Gautschi, SIAM Rev. 9, 24 (1967)) starts in each column at order
    z + 15 z^(1/3) + 20, where J_k(z) is below about 1e-23, is rescaled
    by exact powers of two before it overflows, and is normalised by
    J_0 + 2 sum_k J_2k = 1. A z below 1e-150 is raised to it. K is the
    first k >= floor(z_max) whose tail ``2 sum_{k'>=k} |J_k'(z_max)|``,
    the bound returned, is below the tolerance. At floor(z_max) the tail
    is still near z^(-1/3) (J_k(k) ~ 0.45 k^(-1/3)); past k = z each
    J_k(z) rises with z, so the tail bounds every smaller argument's too.
    ``sequences.sense`` scores its start grid from this table as well.
    """
    z = np.maximum(z, 1e-150)
    starts = (z + 15.0 * np.cbrt(z)).astype(int) + 20
    table = np.zeros((int(starts.max()) + 2, z.size))
    table[starts, np.arange(z.size)] = 1.0
    z_min = float(z.min())
    # bounds on the largest |entry| of rows k and k + 1, grown by the recurrence
    # with the largest 2k / z (plus the 1 a column may start from)
    upper, above = 1.0, 0.0
    for k in range(table.shape[0] - 2, 0, -1):
        # row k - 1 still holds 0, or the 1 its column starts from; each 2k / z
        # is correctly rounded, as one rounded 2 / z would act like a shift of z
        table[k - 1] += (2.0 * k / z) * table[k] - table[k + 1]
        upper, above = 2.0 * k / z_min * upper + above + 1.0, upper
        # rows are read only once the bound is a factor 2 (far more than the
        # rounding of either recurrence) from the threshold, so every rescale
        # is the one a check of each row would make
        if upper > 2.0**511:
            peak = np.abs(table[k - 1])
            if peak.max() > 2.0**512:
                table[k - 1 :] = np.ldexp(table[k - 1 :], -np.where(peak > 2.0**512, np.frexp(peak)[1], 0))
                peak = np.abs(table[k - 1])
            upper, above = float(peak.max()), float(np.abs(table[k]).max())
    table /= table[0] + 2.0 * table[2::2].sum(axis=0)
    start = int(z[-1])
    tails = 2.0 * np.cumsum(np.abs(table[start:, -1])[::-1])[::-1]
    kept = int(np.count_nonzero(tails >= TRUNCATION_TOLERANCE))
    return table[: start + kept].T, float(tails[kept])


def _chebyshev_states(h: sparse.csr_matrix, on_diagonal, bounds, psi: np.ndarray, times: np.ndarray, bessel):
    """e^{-iHt} psi at every one of ``times`` from one Chebyshev series weighted by ``bessel``.

    With H~ = (H - c) / r mapping ``bounds`` onto [-1, 1],
    e^{-iHt} = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k(H~).
    T_k(H~) is real, so its three-term recurrence on A = 2 H~ runs in
    real arithmetic on the real part of psi and then, if psi has one, on
    its imaginary part. Each block of T_k(H~) psi is added into every
    time by real GEMMs that accumulate in place into one pair of real and
    imaginary sums: from the real part, even orders (real weights) into
    the real sum and odd orders (imaginary weights) into the imaginary
    sum; from the imaginary part, even orders into the imaginary sum and
    odd orders, negated, into the real sum.
    ``bessel`` holds J_k(r t) by time (rows) and order k < K (columns).
    """
    centre, half_width = (bounds[1] + bounds[0]) / 2.0, (bounds[1] - bounds[0]) / 2.0
    data = h.data * (2.0 / half_width)
    if centre:
        # either builder stores a diagonal entry in every row or in none (and then c = 0)
        data[on_diagonal] -= 2.0 * centre / half_width
    scaled = sparse.csr_matrix((data, h.indices, h.indptr), shape=h.shape)
    terms = bessel.shape[1]
    orders = np.arange(terms)
    # (2 - delta_k0) (-i)^k is real for even k and imaginary for odd k: its nonzero part
    parts = np.where(orders, 2.0, 1.0) * _MINUS_I_PARTS[orders % 4]
    # real and imaginary parts; C-ordered times x dim is BLAS's dim x times
    sums = np.zeros((2, times.size, psi.size))
    # T_k sits in row k mod _BLOCK; negative indices reach back into the previous block
    chain = np.empty((min(_BLOCK, terms), psi.size))
    # each part of psi with the signs and the sums of its even and odd orders; a zero part adds nothing
    for start, signs, targets in ((psi.real, (1.0, 1.0), (0, 1)), (psi.imag, (1.0, -1.0), (1, 0))):
        if not np.any(start):
            continue
        for k in range(terms):
            row = k % _BLOCK
            if k == 0:
                chain[0] = start
            elif k == 1:
                np.multiply(scaled @ chain[0], 0.5, out=chain[1])
            else:
                np.subtract(scaled @ chain[row - 1], chain[row - 2], out=chain[row])
            if row == _BLOCK - 1 or k == terms - 1:
                # each block starts at an even order, as _BLOCK is even
                weights = parts[k - row : k + 1] * bessel[:, k - row : k + 1]
                for first in range(min(2, row + 1)):
                    # even orders, then odd ones, each into its sum (beta = 1 adds in place)
                    vectors, total = chain[first : row + 1 : 2].T, sums[targets[first]].T
                    blas.dgemm(signs[first], vectors, weights[:, first::2].T, beta=1.0, c=total, overwrite_c=True)
    out = np.empty(sums.shape[1:], dtype=complex)
    out.real, out.imag = sums
    out *= np.exp(-1j * centre * times)[:, None]
    return out


def evolve_grid(state: np.ndarray, spec: HamiltonianSpec, times) -> GridEvolution:
    """Unitary evolution of ``state`` to every one of ``times`` (s).

    ``times`` must be non-negative and non-decreasing; repeats are
    allowed and give identical states. H is built once in the state's
    symmetry sector: for a coupled Ising H in the sigma^x eigenbasis,
    folded by Z-parity, with its spectrum in the Weyl enclosure (see the
    module docstring); otherwise in the sigma^z basis, with its spectrum
    bounded by Gershgorin discs (diagonal +- off-diagonal absolute row
    sum). A diagonal H (an Ising H with B = 0, or without couplings) is
    applied as exact phases; otherwise one Chebyshev recurrence on the
    scaled H serves every distinct positive time (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)), cut at the first K whose dropped terms are
    bounded below 1e-14 in norm; K, that bound and the weights come from
    one :func:`_bessel_table`. Before it or any state stack is allocated,
    :class:`PropagationBudgetError` refuses a table of more than
    ``MAX_CHEBYSHEV_TERMS`` orders (z + 15 z^(1/3) + 22, z = r t_max), or
    more than ``MAX_GRID_ENTRIES`` orders x times or times x 2^N entries,
    and :class:`IonstringError` an H whose spectral bounds are not finite.
    The norm of every propagated state is checked against the input's
    to a relative 1e-10; the state need not be normalised. A time of 0
    gives a copy of ``state``. A state of more than ``DEFAULT_QUBIT_CAP``
    qubits raises :class:`DimensionCapError` before H is built.
    """
    n = qubit_count(state)
    if n != spec.coupling.ion_count:
        raise ValueError("state size and coupling matrix disagree")
    if n > DEFAULT_QUBIT_CAP:
        raise DimensionCapError(f"{n} qubits exceeds the cap of {DEFAULT_QUBIT_CAP} qubits of exact dynamics")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D sequence")
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times, prepend=0.0) >= 0)):
        raise ValueError("times must be finite, >= 0 and non-decreasing")

    if not np.any(state):
        raise ValueError("state is zero")
    folded = spec.model == ISING_TRANSVERSE and np.any(np.triu(spec.coupling.j, 1))
    if folded:
        parities = 1.0 - 2.0 * np.unique(_down_counts(n)[state != 0] % 2)
        psi = _fold_x(state, parities)
    else:
        basis = _sector_basis(state, spec.model)
        psi = state[basis]
    grid, where = np.unique(times, return_inverse=True)
    moving = grid > 0
    terms, bound, bounds, norm_error, z, orders = 0, 0.0, None, 0.0, 0.0, 0.0
    if moving.any():
        h = _ising_x_folds(spec, parities) if folded else build_hamiltonian(spec, basis)
        rows = np.repeat(np.arange(psi.size), np.diff(h.indptr))
        on_diagonal = h.indices == rows
        diagonal = np.bincount(rows, np.where(on_diagonal, h.data, 0.0), psi.size)
        if folded:
            # Weyl: diag(E) plus B sum_k sigma^z_k, whose eigenvalues are B (N - 2k) at k spins down
            downs = np.arange(n + 1)
            fields = spec.coupling.field_b * (n - 2 * downs[np.isin(1 - 2 * (downs % 2), parities)])
            bounds = (float(diagonal.min() + fields.min()), float(diagonal.max() + fields.max()))
        else:
            # Gershgorin discs off the CSR arrays: centre h_ss, radius sum_(s' != s) |h_ss'|
            radii = np.bincount(rows, np.where(on_diagonal, 0.0, np.abs(h.data)), psi.size)
            bounds = (float(np.min(diagonal - radii)), float(np.max(diagonal + radii)))
        half_width = (bounds[1] - bounds[0]) / 2.0
        if not np.isfinite(half_width):
            raise IonstringError(f"the spectral bounds {bounds} of H are not finite: a coupling or the field is not")
        # a z past the float range is inf, which the budget below refuses
        with np.errstate(over="ignore"):
            z = half_width * grid[-1]
        # no fewer than the rows _bessel_table builds, and no Bessel value needed
        orders = 0.0 if on_diagonal.all() else z + 15.0 * np.cbrt(z) + 22.0
    entries = max(orders * np.count_nonzero(moving), times.size * state.size)
    if orders > MAX_CHEBYSHEV_TERMS or entries > MAX_GRID_ENTRIES:
        raise PropagationBudgetError(
            f"{times.size} times to t = {grid[-1]:g} s, r*t_max = {z:.4g}: {orders:.0f} Bessel orders "
            f"(at most {MAX_CHEBYSHEV_TERMS}), {entries:.3g} table or state entries (at most {MAX_GRID_ENTRIES})"
        )

    sector = np.empty((grid.size, psi.size), dtype=complex)
    sector[~moving] = psi
    if moving.any():
        if on_diagonal.all():
            sector[moving] = np.exp(-1j * np.outer(grid[moving], diagonal)) * psi
        else:
            bessel, bound = _bessel_table(half_width * grid[moving])
            terms = bessel.shape[1]
            sector[moving] = _chebyshev_states(h, on_diagonal, bounds, psi, grid[moving], bessel)
        norm_error = float(np.max(np.abs(np.linalg.norm(sector[moving], axis=1) / np.linalg.norm(state) - 1.0)))
        if norm_error > 1e-10:
            raise FloatingPointError(f"evolution lost norm: | |psi(t)| / |psi(0)| - 1 | = {norm_error!r}")
    if folded:
        states = _unfold_x(sector, parities)
        # freed before any repeated time's rows are copied
        del sector
        # a time of 0 gives the state itself, not its round trip through the transform
        states[~moving] = state
        if grid.size != times.size:
            states = states[where]
    else:
        states = np.zeros((times.size, state.size), dtype=complex)
        states[:, basis] = sector[where]
    result = GridEvolution(states, terms, bound, bounds, norm_error, psi.size)
    logger.debug("evolve_grid: %s", result.record())
    return result



def evolve(state: np.ndarray, spec: HamiltonianSpec, t: float) -> np.ndarray:
    """Unitary evolution of ``state`` for time ``t`` (s); see :func:`evolve_grid`."""
    return evolve_grid(state, spec, [t])[0]


def magnetization(state: np.ndarray) -> np.ndarray:
    """Per-ion <sigma_z> expectation values, entries in [-1, 1], of a state or of each row of a stack."""
    return (np.abs(state) ** 2) @ _sigma_z_signs(qubit_count(state))


def total_magnetization(state: np.ndarray) -> float:
    return float(np.sum(magnetization(state)))
