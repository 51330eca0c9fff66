"""Exact state-vector dynamics of small spin chains.

Basis convention: a basis state is indexed by an integer whose most
significant bit belongs to ion 1. Bit value 0 means spin up
(sigma_z = +1), bit value 1 spin down. States are dense complex
vectors of length 2^N.

Two Hamiltonians are supported: the transverse-field Ising form

    H = sum_{i<j} J_ij sigma^x_i sigma^x_j + B sum_k sigma^z_k

and its large-field effective limit, the XY (flip-flop) form

    H = sum_{i<j} J_ij (sigma^+_i sigma^-_j + sigma^-_i sigma^+_j),

which conserves total magnetization. Exact propagation uses sparse
matrix exponentials applied to the state, so there is no integrator
bias at this scale.

:func:`evolve_grid` is the one propagation path. It propagates only in
the symmetry sector of the initial state (Sandvik, arXiv:1101.3281):
XY conserves the number of spin-down ions and the Ising pair flips
conserve its parity, so a Neel state needs C(N, N/2) states in XY and
2^(N-1) in Ising. H is built once in the sector and the state is
stepped across a non-decreasing time grid, one sparse exponential per
positive interval (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
(2011)). :func:`evolve` is the single-time case.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from ionstring.coupling import CouplingMatrix
from ionstring.errors import DimensionCapError

ISING_TRANSVERSE = "ising_transverse"
XY_EFFECTIVE = "xy_effective"

DEFAULT_QUBIT_CAP = 14

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
    space. ``propagation_steps`` is the number of positive time
    intervals propagated; ``max_norm_error`` the worst
    ``| |psi| - 1 |`` over the propagated states (0 when nothing was
    propagated); ``sector_dim`` the dimension of the symmetry sector
    the state was propagated in.
    """

    states: np.ndarray
    propagation_steps: int
    max_norm_error: float
    sector_dim: int

    def __getitem__(self, index):
        return self.states[index]

    def __iter__(self):
        return iter(self.states)


def evolve_grid(
    state: np.ndarray,
    spec: HamiltonianSpec,
    times,
    max_qubits: int = DEFAULT_QUBIT_CAP,
) -> GridEvolution:
    """Unitary evolution of ``state`` to every one of ``times`` (s).

    ``times`` must be non-negative and non-decreasing; repeats are
    allowed. H is built once in the state's symmetry sector and the
    state is stepped across the grid, one propagation per positive
    interval. Diagonal Hamiltonians are applied as exact phases;
    otherwise each step is a scaled sparse matrix exponential acting on
    the state. The norm is checked to 1e-10 after every step. A time of
    0 gives a copy of ``state``. The qubit cap counts qubits.
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
    intervals = np.diff(times, prepend=0.0)
    if not (np.all(np.isfinite(times)) and np.all(intervals >= 0)):
        raise ValueError("times must be finite, >= 0 and non-decreasing")

    basis = _sector_basis(state, spec.model)
    states = np.zeros((times.size, state.size), dtype=complex)
    psi = state[basis]
    steps, norm_error = 0, 0.0
    if times.size and times[-1] > 0:
        h = build_hamiltonian(spec, basis)
        # diagonal when every stored column index equals its row
        exact_phases = np.array_equal(h.indices, np.repeat(np.arange(basis.size), np.diff(h.indptr)))
        diagonal = h.diagonal()
        tolerance = 1e-10 * max(1.0, np.linalg.norm(state))
    for k, dt in enumerate(intervals):
        if dt > 0:
            if exact_phases:
                psi = np.exp(-1j * dt * diagonal) * psi
            else:
                psi = expm_multiply(-1j * dt * h, psi)
            norm = float(np.linalg.norm(psi))
            if abs(norm - 1.0) > tolerance:
                raise FloatingPointError(f"evolution lost norm: |psi| = {norm!r}")
            steps += 1
            norm_error = max(norm_error, abs(norm - 1.0))
        states[k, basis] = psi
    logger.debug("evolve_grid: sector of %d states, %d propagation steps, max norm error %.3g",
                 basis.size, steps, norm_error)
    return GridEvolution(states, steps, norm_error, basis.size)


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
