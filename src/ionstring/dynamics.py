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
the symmetry sector of the initial state (Sandvik, arXiv:1101.3281):
XY conserves the number of spin-down ions and the Ising pair flips
conserve its parity, so a Neel state needs C(N, N/2) states in XY and
2^(N-1) in Ising. H is built once in the sector, scaled into [-1, 1]
by its Gershgorin discs, and one Chebyshev recurrence serves every time
of the grid at once (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
(1984)). :func:`evolve` is the single-time case.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse, special
# Not called by the propagation. perfbench traces dynamics.expm_multiply as
# a scipy entry point, and its tracer test requires every name it counts to
# exist; the import goes when the benchmark counts the Chebyshev kernel.
from scipy.sparse.linalg import expm_multiply  # noqa: F401

from ionstring.coupling import CouplingMatrix
from ionstring.errors import DimensionCapError, PropagationBudgetError

ISING_TRANSVERSE = "ising_transverse"
XY_EFFECTIVE = "xy_effective"

DEFAULT_QUBIT_CAP = 14

# Chebyshev series are cut where the norm of the dropped terms is bounded below this.
TRUNCATION_TOLERANCE = 1e-14
# The most Chebyshev terms (matrix-vector products) one evolve_grid call
# may take: about 2400x the longest series of the quench benchmark
# (K = 422). At the measured 0.3 ms per term for a 12-ion Ising sector
# (1.1 ms at 14 ions) that is about 5 (18) minutes. A 1000 s quench would
# need about 10^8.
MAX_CHEBYSHEV_TERMS = 10**6
# Chebyshev vectors added into the outputs per matrix product
_BLOCK = 32
# (-i)^k by k mod 4, exact
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])

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
    n = int(round(np.log2(state.size)))
    if 2**n != state.size:
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


def _sigma_z_signs(n: int, basis: np.ndarray | None = None) -> np.ndarray:
    """(len(basis), N) array of sigma_z eigenvalues per basis state and ion."""
    basis = np.arange(2**n) if basis is None else basis
    bits = (basis[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    return 1.0 - 2.0 * bits


def _sector_basis(state: np.ndarray, model: str) -> np.ndarray:
    """Sorted basis indices of the smallest sector H keeps closed that holds ``state``."""
    label = np.count_nonzero(_sigma_z_signs(qubit_count(state)) < 0, axis=1)
    if model == ISING_TRANSVERSE:
        label %= 2
    return np.flatnonzero(np.isin(label, label[state != 0]))


def build_hamiltonian(spec: HamiltonianSpec, basis: np.ndarray | None = None) -> sparse.csr_matrix:
    """Sparse Hamiltonian on ``basis`` in the documented basis ordering.

    ``basis`` is a sorted array of basis indices that H maps into
    itself (a symmetry sector); it defaults to the full 2^N space.
    """
    j = spec.coupling.j
    n = j.shape[0]
    basis = np.arange(2**n) if basis is None else np.asarray(basis)
    dim = basis.size
    positions = np.arange(dim)
    signs = _sigma_z_signs(n, basis)

    rows, cols, vals = [], [], []
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n) if j[i, k] != 0.0]
    for i, k in pairs:
        mask = (1 << (n - 1 - i)) | (1 << (n - 1 - k))
        # Ising flips every pair; flip-flop only acts where the two spins
        # are anti-aligned
        acts = slice(None) if spec.model == ISING_TRANSVERSE else signs[:, i] != signs[:, k]
        rows.append(np.searchsorted(basis, basis[acts] ^ mask))
        cols.append(positions[acts])
        vals.append(np.full(cols[-1].size, j[i, k]))

    if spec.model == ISING_TRANSVERSE and spec.coupling.field_b != 0.0:
        rows.append(positions)
        cols.append(positions)
        vals.append(spec.coupling.field_b * signs.sum(axis=1))

    if rows:
        h = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        ).tocsr()
    else:
        h = sparse.csr_matrix((dim, dim))
    return h


@dataclass(frozen=True)
class GridEvolution:
    """States on a time grid, one per time, with the cost of getting them.

    Indexing and iteration give the states, embedded in the full 2^N
    space. ``chebyshev_terms`` is the length K of the Chebyshev series
    summed, 0 when H is diagonal (the states are exact phases) or no
    time is positive; ``truncation_bound`` the bound
    ``2 sum_{k>=K} |J_k(r t_max)|`` on the norm of the terms dropped;
    ``spectral_bounds`` the Gershgorin interval ``(lo, hi)`` holding the
    spectrum of H in the sector, None when no time is positive and no H
    was built; ``max_norm_error`` the worst ``| |psi| - 1 |`` over the
    propagated states (0 when nothing was propagated); ``sector_dim``
    the dimension of the symmetry sector the state was propagated in.
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


def _series_length(half_width: float, t_max: float) -> tuple[int, float]:
    """First K >= floor(z), z = r t_max, with ``2 sum_{k>=K} |J_k(z)|`` below the tolerance, and that sum.

    The search may start at floor(z): there the sum is still near
    z^(-1/3) (J_k(k) ~ 0.45 k^(-1/3)), far above the tolerance for any
    z the budget admits, so K > z. Past k = z each J_k(z) rises with z,
    so the sum bounds the dropped terms at every earlier time too. A K
    above ``MAX_CHEBYSHEV_TERMS`` raises :class:`PropagationBudgetError`.
    """
    z = half_width * t_max
    if z < MAX_CHEBYSHEV_TERMS:
        start = int(z)
        # |J_k(z)| falls faster than exponentially once k - z passes a few
        # z^(1/3); at the end of this range it is below 1e-25
        orders = np.arange(start, int(z + 15.0 * np.cbrt(z)) + 60)
        tails = 2.0 * np.cumsum(np.abs(special.jv(orders, z))[::-1])[::-1]
        kept = int(np.count_nonzero(tails >= TRUNCATION_TOLERANCE))
        if start + kept <= MAX_CHEBYSHEV_TERMS:
            return start + kept, float(tails[kept])
    raise PropagationBudgetError(
        f"propagating to t = {t_max:g} s needs more than {MAX_CHEBYSHEV_TERMS} Chebyshev terms: "
        f"r*t_max = {z:.4g} (spectral half-width r = {half_width:.4g} rad/s)"
    )


def _chebyshev_states(h: sparse.csr_matrix, bounds, psi: np.ndarray, times: np.ndarray, terms: int) -> np.ndarray:
    """e^{-iHt} psi at every one of ``times`` from the first ``terms`` of one Chebyshev series.

    With H~ = (H - c) / r mapping ``bounds`` onto [-1, 1],
    e^{-iHt} = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k(H~).
    T_k(H~) psi comes from the three-term recurrence; each block of
    them is added into every time with one matrix product.
    """
    centre, half_width = (bounds[1] + bounds[0]) / 2.0, (bounds[1] - bounds[0]) / 2.0
    # T_k(H~) is real, so a real state recurs in real arithmetic
    dtype = complex if np.any(np.imag(psi)) else float
    scaled = ((h - centre * sparse.identity(psi.size, format="csr")) / half_width).astype(dtype)
    out = np.zeros((times.size, psi.size), dtype=complex)
    block = np.empty((_BLOCK, psi.size), dtype=dtype)
    previous, current = np.zeros(psi.size, dtype=dtype), psi if dtype is complex else psi.real
    for start in range(0, terms, _BLOCK):
        orders = np.arange(start, min(start + _BLOCK, terms))
        for row, k in enumerate(orders):
            if k:
                # T_1 = H~ T_0; T_k = 2 H~ T_(k-1) - T_(k-2)
                previous, current = current, (2.0 if k > 1 else 1.0) * (scaled @ current) - previous
            block[row] = current
        bessels = special.jv(orders, half_width * times[:, None])
        out += (np.where(orders, 2.0, 1.0) * _MINUS_I_POWERS[orders % 4] * bessels) @ block[: orders.size]
    return out * np.exp(-1j * centre * times)[:, None]


def evolve_grid(
    state: np.ndarray,
    spec: HamiltonianSpec,
    times,
    max_qubits: int = DEFAULT_QUBIT_CAP,
) -> GridEvolution:
    """Unitary evolution of ``state`` to every one of ``times`` (s).

    ``times`` must be non-negative and non-decreasing; repeats are
    allowed and give identical states. H is built once in the state's
    symmetry sector and its spectrum bounded by Gershgorin discs
    (diagonal +- off-diagonal absolute row sum). A diagonal H is applied
    as exact phases; otherwise one Chebyshev recurrence on the scaled H
    serves every distinct positive time (Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984)), cut at the first K whose dropped terms are
    bounded below 1e-14 in norm. A K above ``MAX_CHEBYSHEV_TERMS``
    raises :class:`PropagationBudgetError` before any matrix-vector
    product. The norm of every propagated state is checked to 1e-10. A
    time of 0 gives a copy of ``state``. The qubit cap counts qubits.
    """
    n = qubit_count(state)
    if n != spec.coupling.ion_count:
        raise ValueError("state size and coupling matrix disagree")
    if n > max_qubits:
        raise DimensionCapError(
            f"{n} qubits exceeds the cap of {max_qubits}; raise max_qubits "
            f"explicitly if you really want a {2**n}-dimensional solve"
        )
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D sequence")
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times, prepend=0.0) >= 0)):
        raise ValueError("times must be finite, >= 0 and non-decreasing")

    basis = _sector_basis(state, spec.model)
    if not basis.size:
        raise ValueError("state is zero")
    psi = state[basis]
    grid, where = np.unique(times, return_inverse=True)
    moving = grid > 0
    sector = np.empty((grid.size, basis.size), dtype=complex)
    sector[~moving] = psi
    terms, bound, bounds, norm_error = 0, 0.0, None, 0.0
    if moving.any():
        h = build_hamiltonian(spec, basis)
        diagonal = h.diagonal()
        off_diagonal = h - sparse.diags(diagonal)
        radii = abs(off_diagonal) @ np.ones(basis.size)
        bounds = (float(np.min(diagonal - radii)), float(np.max(diagonal + radii)))
        if off_diagonal.nnz:
            terms, bound = _series_length((bounds[1] - bounds[0]) / 2.0, grid[-1])
            sector[moving] = _chebyshev_states(h, bounds, psi, grid[moving], terms)
        else:
            sector[moving] = np.exp(-1j * np.outer(grid[moving], diagonal)) * psi
        norm_error = float(np.max(np.abs(np.linalg.norm(sector[moving], axis=1) - 1.0)))
        if norm_error > 1e-10 * max(1.0, np.linalg.norm(state)):
            raise FloatingPointError(f"evolution lost norm: | |psi| - 1 | = {norm_error!r}")
    states = np.zeros((times.size, state.size), dtype=complex)
    states[:, basis] = sector[where]
    logger.debug(
        "evolve_grid: sector of %d states, %d Chebyshev terms, truncation bound %.3g, spectral bounds %s, "
        "max norm error %.3g", basis.size, terms, bound, bounds, norm_error,
    )
    return GridEvolution(states, terms, bound, bounds, norm_error, basis.size)


def evolve(
    state: np.ndarray,
    spec: HamiltonianSpec,
    t: float,
    max_qubits: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Unitary evolution of ``state`` for time ``t`` (s); see :func:`evolve_grid`."""
    return evolve_grid(state, spec, [t], max_qubits)[0]


def magnetization(state: np.ndarray) -> np.ndarray:
    """Per-ion <sigma_z> expectation values, entries in [-1, 1]."""
    n = qubit_count(state)
    probs = np.abs(state) ** 2
    return _sigma_z_signs(n).T @ probs


def total_magnetization(state: np.ndarray) -> float:
    return float(np.sum(magnetization(state)))


def energy_expectation(state: np.ndarray, spec: HamiltonianSpec) -> float:
    h = build_hamiltonian(spec)
    return float(np.real(np.vdot(state, h @ state)))
