"""Reduced density matrices, logarithmic negativity, and simulated tomography.

Pair entanglement is certified by the logarithmic negativity
LN2 = log2 of the trace norm of the partially transposed two-qubit
density matrix; triplets use the geometric mean of the three one-vs-two
bipartition values. Simulated tomography reproduces the shot-limited
estimation chain: Pauli-basis measurements, linear inversion, and
projection onto the physical (unit-trace, positive) set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ionstring.dynamics import qubit_count

# Columns are eigenvectors of X, Y, Z ordered (+1, -1).
_BASIS_ROTATIONS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}
# 3 |b><b| - I for outcome b of each basis, indexed [basis * 2 + b, row, col]:
# the single-qubit inverse of measuring one of three Pauli bases at random.
_INVERSE = np.concatenate(
    [3.0 * np.einsum("rb,cb->brc", u, u.conj()) - np.eye(2) for u in _BASIS_ROTATIONS.values()]
)

_SUBSET_CAP = 3


def reduced_density_matrix(state: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
    """Partial trace of a pure state down to the given ions.

    ``subset`` uses 1-based ion indices in the order the qubits should
    appear in the reduced matrix. Subsets are capped at three qubits,
    matching what the certification pipeline consumes.
    """
    n = qubit_count(state)
    subset = tuple(int(i) for i in subset)
    if len(set(subset)) != len(subset):
        raise ValueError("duplicate ion indices in subset")
    if not all(1 <= i <= n for i in subset):
        raise ValueError(f"subset indices must lie in 1..{n}")
    if len(subset) > _SUBSET_CAP:
        raise ValueError(f"subset of {len(subset)} qubits exceeds cap {_SUBSET_CAP}")

    axes_keep = [i - 1 for i in subset]
    axes_trace = [a for a in range(n) if a not in axes_keep]
    psi = state.reshape((2,) * n)
    rho = np.tensordot(psi, psi.conj(), axes=(axes_trace, axes_trace))
    # tensordot orders the kept axes by position; permute to subset order
    order = np.argsort(np.argsort(axes_keep))
    k = len(subset)
    rho = rho.transpose(*order, *(order + k))
    return rho.reshape(2**k, 2**k)


def partial_transpose(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Partial transpose of a bipartite density matrix over its first factor.

    ``dims = (dA, dB)`` factor the Hilbert space. The operation is an
    involution, and transposing the second factor instead gives the full
    transpose of this, with the same spectrum.
    """
    da, db = dims
    if rho.shape != (da * db, da * db):
        raise ValueError("dims do not match matrix size")
    return rho.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)


@dataclass(frozen=True)
class LogNegativity:
    """Clipped value plus the raw (unclipped) log2 trace norm."""

    value: float
    raw: float

    def __float__(self) -> float:
        return self.value


def _bipartite_log_negativity(rho: np.ndarray, dims: tuple[int, int]) -> LogNegativity:
    if np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        raise ValueError("density matrix is not Hermitian within tolerance")
    pt = partial_transpose(rho, dims)
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(pt))))
    raw = float(np.log2(trace_norm))
    return LogNegativity(value=max(raw, 0.0), raw=raw)


def log_negativity_2(rho: np.ndarray) -> LogNegativity:
    """Logarithmic negativity of a two-qubit state across one qubit.

    The raw value is reported alongside the clipped-at-zero one so that
    tiny negative round-off is visible.
    """
    if rho.shape != (4, 4):
        raise ValueError("log_negativity_2 expects a 4x4 density matrix")
    return _bipartite_log_negativity(rho, (2, 2))


def log_negativity_3(rho: np.ndarray) -> LogNegativity:
    """Geometric mean of the three one-vs-two bipartition negativities."""
    if rho.shape != (8, 8):
        raise ValueError("log_negativity_3 expects an 8x8 density matrix")
    values = []
    for i in range(3):
        order = [i] + [q for q in range(3) if q != i]
        perm = _permute_qubits(rho, order)
        values.append(_bipartite_log_negativity(perm, (2, 4)).value)
    value = float(np.cbrt(values[0] * values[1] * values[2]))
    return LogNegativity(value=value, raw=value)


def _permute_qubits(rho: np.ndarray, order: list[int]) -> np.ndarray:
    k = len(order)
    r = rho.reshape((2,) * (2 * k))
    axes = list(order) + [k + q for q in order]
    return r.transpose(axes).reshape(2**k, 2**k)


def project_to_physical(rho: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) unit-trace positive-semidefinite matrix.

    Projects the eigenvalue vector of the Hermitian part onto the
    probability simplex and rebuilds the matrix in the same eigenbasis.
    """
    herm = 0.5 * (rho + rho.conj().T)
    eigenvalues, vectors = np.linalg.eigh(herm)
    lam = _project_simplex(eigenvalues)
    return (vectors * lam[None, :]) @ vectors.conj().T


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho_idx = np.nonzero(u - css / np.arange(1, len(v) + 1) > 0)[0][-1]
    theta = css[rho_idx] / (rho_idx + 1.0)
    return np.maximum(v - theta, 0.0)


def _measurement_probabilities(rho: np.ndarray, setting: tuple[str, ...]) -> np.ndarray:
    u = _BASIS_ROTATIONS[setting[0]]
    for letter in setting[1:]:
        u = np.kron(u, _BASIS_ROTATIONS[letter])
    probs = np.real(np.einsum("ji,jk,ki->i", u.conj(), rho, u))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def simulate_tomography(
    state: np.ndarray,
    subset: tuple[int, ...],
    shots_per_setting: int | None,
    seed: int | None = None,
) -> np.ndarray:
    """Shot-limited state estimate of a small subsystem.

    Measures all 3^k Pauli settings of the reduced state with
    ``shots_per_setting`` samples each (``None`` uses exact
    probabilities, the infinite-shot limit), reconstructs by linear
    inversion, and projects onto the physical set. Sampling uses only
    the explicitly seeded generator, by inverse-CDF draws, so
    roundoff-level changes in the state do not move the counts.

    The inversion averages every Pauli string over the settings that
    measure it, which is 3^-k sum_settings sum_outcomes f(o) times the
    product over qubits of 3 |b_q><b_q| - I, with |b_q> the eigenvector
    of qubit q's basis that its outcome selects.
    """
    rho_exact = reduced_density_matrix(state, subset)
    k = len(subset)
    rng = np.random.default_rng(seed)

    freqs = []
    for setting in itertools.product("XYZ", repeat=k):
        probs = _measurement_probabilities(rho_exact, setting)
        if shots_per_setting is None:
            freqs.append(probs)
        else:
            if shots_per_setting < 1:
                raise ValueError("shots_per_setting must be >= 1 or None")
            # not rng.multinomial: its binomial draws flip at p = 1/2,
            # swapping counts under any change of the probabilities
            draws = np.searchsorted(np.cumsum(probs)[:-1], rng.random(shots_per_setting), side="right")
            freqs.append(np.bincount(draws, minlength=probs.size) / shots_per_setting)

    # axes (basis_1, ..., basis_k, outcome_1, ..., outcome_k), paired per qubit
    rho_est = np.reshape(freqs, (3,) * k + (2,) * k)
    rho_est = rho_est.transpose([a for q in range(k) for a in (q, k + q)]).reshape((6,) * k)
    for _ in range(k):
        rho_est = np.tensordot(rho_est, _INVERSE, axes=(0, 0))
    # axes (row_1, col_1, ..., row_k, col_k)
    rho_est = rho_est.transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)]).reshape(2**k, 2**k) / 3**k

    return project_to_physical(rho_est)
