"""The noisy GHZ state and its Born-rule outcome tables.

Every quantity the simulator needs comes from one state: the N-qubit GHZ
state after independent per-qubit depolarizing, measured with one two-outcome
observable per qubit.  ``GHZState(n, p)`` holds that state as the two
numbers alone; there is no dense 2**N x 2**N density matrix in the package.
The dense reference (a density matrix, a per-qubit depolarizer and a
``tensordot`` Born-rule contraction) is the oracle in ``tests/test_quantum.py``.

Closed form
-----------
Write GHZ = 1/2 sum_{i,j in {0,1}} |i...i><j...j|.  The depolarizing
channel maps |i><j| to (1 - p)|i><j| + p delta_ij I/2 on each qubit, so the
noisy state is 1/2 sum_ij (x)_k [(1 - p)|i><j| + p delta_ij I/2] and the
probability of outcome string b is

    P(b) = 1/2 Re sum_ij prod_k F_k[i, j, b_k],
    F_k[i, j, b] = (1 - p) P_{k,b}[j, i] + p delta_ij / 2,

with P_{k,b} = (I + (-1)**b M_k) / 2 the projector of party k's observable
M_k onto outcome b (Tr[|i><j| P_b] = <j|P_b|i>).  The projectors come from
the observable by one addition, with no eigendecomposition: for an
eigenbasis u of M_k, conj(u[i, b]) u[j, b] = P_b[j, i].  This holds for any
2x2 observables.  Each of the four (i, j)
terms is one Kronecker chain over the parties, O(2**N) per table instead
of the dense O(4**N) state.  Two channels compose: depolarizing with p0
and then p is depolarizing with 1 - (1 - p0)(1 - p).

Conventions
-----------
* Outcome bit 0 corresponds to the +1 eigenvalue of an observable and bit 1
  to the -1 eigenvalue.
* A probability table over outcome strings is a flat array of length 2**N,
  indexed by the integer whose binary expansion is the outcome string with
  party 0 in the most significant position; ``outcome_bits`` (every party)
  and ``party_bits`` (one party) are the only decoders of such indices.

Everything here is a pure function of its inputs; there is no shared
mutable state, so evaluation is safe to parallelise across parameter
points or rounds.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, SizeOutOfRangeError

MAX_QUBITS = 12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class Observable:
    """Two-outcome observable: a 2x2 Hermitian involution (eigenvalues +-1)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (2, 2):
            raise DimensionMismatchError("observable must be 2x2")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise DomainError("observable is not Hermitian")
        if np.max(np.abs(mat @ mat - PAULI_I)) > 1e-12:
            raise DomainError("observable squared is not the identity")
        object.__setattr__(self, "matrix", mat)


def _check_probability(p_dep: float) -> None:
    if not 0.0 <= p_dep <= 1.0:
        raise DomainError(f"p_dep must lie in [0, 1], got {p_dep!r}")


@dataclass(frozen=True)
class GHZState:
    """GHZ state on 2..12 qubits after per-qubit depolarizing with probability ``p_dep``."""

    n_qubits: int
    p_dep: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_qubits, numbers.Integral) or not 2 <= self.n_qubits <= MAX_QUBITS:
            raise SizeOutOfRangeError(
                f"n_qubits must lie in [2, {MAX_QUBITS}], as an integer, for exact simulation, "
                f"got {self.n_qubits!r}"
            )
        _check_probability(self.p_dep)


def depolarize_each(state: GHZState, p_dep: float) -> GHZState:
    """Apply the depolarizing channel with probability ``p_dep`` independently to every qubit.

    The two channels compose into one with probability 1 - (1 - p0)(1 - p),
    written p0 + (1 - p0) p so that p0 = 0 or p = 0 returns the other
    probability exactly.  ``p_dep`` is checked here: on a fully depolarized
    state (p0 = 1) the composed probability is 1 whatever ``p_dep`` is.
    """
    _check_probability(p_dep)
    return GHZState(state.n_qubits, state.p_dep + (1.0 - state.p_dep) * p_dep)


def joint_distribution(state: GHZState, settings: Sequence[Observable]) -> np.ndarray:
    """Born-rule outcome distribution for one observable per qubit.

    Entry b is Tr[rho (x)_k P_{b_k}] with P the eigenprojectors of party k's
    observable, evaluated as P(b) = 1/2 Re sum_ij prod_k F_k[i, j, b_k]
    (module docstring); party 0 occupies the most significant bit of the index.
    """
    if len(settings) != state.n_qubits:
        raise DimensionMismatchError(f"need {state.n_qubits} observables, got {len(settings)}")
    p = state.p_dep
    # projectors[b] = (I + (-1)**b M) / 2, stacked over b = 0, 1
    projectors = [np.stack([PAULI_I + obs.matrix, PAULI_I - obs.matrix]) / 2.0 for obs in settings]
    probs = np.zeros(2 ** len(settings))
    for i in (0, 1):
        for j in (0, 1):
            term = np.ones(1, dtype=complex)
            for proj in projectors:
                f = (1.0 - p) * proj[:, j, i] + (p / 2.0 if i == j else 0.0)
                term = np.multiply.outer(term, f).ravel()  # kron(term, f), without its overhead
            probs += term.real
    probs *= 0.5
    np.clip(probs, 0.0, None, out=probs)
    return probs


def outcome_bits(idx: np.ndarray, n_qubits: int) -> np.ndarray:
    """uint8 outcome bits of integer outcome indices: one row per index, party 0 first.

    The shifts run in the indices' own dtype: one or two bytes per entry for the round store.
    """
    shifts = np.arange(n_qubits - 1, -1, -1, dtype=idx.dtype)
    return ((idx[:, None] >> shifts) & 1).astype(np.uint8, copy=False)


def party_bits(idx: np.ndarray, n_qubits: int, party: int) -> np.ndarray:
    """uint8 outcome bits of one party (0 first) of integer outcome indices."""
    bits = idx >> (n_qubits - 1 - party)
    bits &= 1
    return bits.astype(np.uint8, copy=False)
