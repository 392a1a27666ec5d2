"""Exact linear-algebra substrate for the protocol simulator.

Builds N-qubit GHZ states, applies per-qubit depolarizing noise and
evaluates joint measurement-outcome distributions via the Born rule.

State representations
---------------------
* ``PureState`` / ``MixedState`` are dense: a 2**N state vector or a
  2**N x 2**N density matrix, validated on construction (the PSD check is
  an ``eigvalsh``).  They hold any state and are the reference
  implementation; ``dicka game`` and the acceptance criteria use them.
* ``GHZState(n, p)`` is the GHZ state after independent per-qubit
  depolarizing with probability p, held as the two numbers alone.  The
  protocol builds its outcome tables from it.

``depolarize_each`` and ``joint_distribution`` accept both kinds.  For the
closed form, write GHZ = 1/2 sum_{i,j in {0,1}} |i...i><j...j|.  The
depolarizing channel maps |i><j| to (1 - p)|i><j| + p delta_ij I/2 on each
qubit, so the noisy state is 1/2 sum_ij (x)_k [(1 - p)|i><j| + p delta_ij I/2]
and the probability of outcome string b is

    P(b) = 1/2 Re sum_ij prod_k F_k[i, j, b_k],
    F_k[i, j, b] = (1 - p) conj(u_k[i, b]) u_k[j, b] + p delta_ij / 2,

with u_k the eigenbasis of party k's observable (Tr[|i><j| P_b] =
<j|P_b|i>).  This holds for any 2x2 observables.  Each of the four (i, j)
terms is one Kronecker chain over the parties, O(2**N) per table instead
of the dense O(4**N) state.  Two channels compose: depolarizing with p0
and then p is depolarizing with 1 - (1 - p0)(1 - p).

Conventions
-----------
* Outcome bit 0 corresponds to the +1 eigenvalue of an observable and bit 1
  to the -1 eigenvalue.
* A probability table over outcome strings is a flat array of length 2**N,
  indexed by the integer whose binary expansion is the outcome string with
  party 0 in the most significant position; ``outcome_bits`` is the one
  decoder of such indices back to per-party bits.

Everything here is a pure function of its inputs; there is no shared
mutable state, so evaluation is safe to parallelise across parameter
points or rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, DomainError, SizeOutOfRangeError

MAX_QUBITS = 12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

@dataclass(frozen=True)
class PureState:
    """State vector of ``n_qubits`` qubits, normalised to 1 within 1e-12."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise SizeOutOfRangeError("n_qubits must be positive")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2**self.n_qubits,):
            raise DimensionMismatchError(
                f"expected {2**self.n_qubits} amplitudes, got shape {amp.shape}"
            )
        norm = float(np.sum(np.abs(amp) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"state is not normalised: |psi|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", amp)

    def density_matrix(self) -> "MixedState":
        return MixedState(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class MixedState:
    """Density operator: unit trace, Hermitian, positive semidefinite."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise SizeOutOfRangeError("n_qubits must be positive")
        dim = 2**self.n_qubits
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise DimensionMismatchError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if abs(np.trace(mat).real - 1.0) > 1e-12 or abs(np.trace(mat).imag) > 1e-12:
            raise DomainError(f"trace is {np.trace(mat)!r}, expected 1")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise DomainError("matrix is not Hermitian within 1e-12")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -1e-10:
            raise DomainError(f"matrix is not PSD: min eigenvalue {min_eig!r}")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class Observable:
    """Two-outcome observable: a 2x2 Hermitian involution (eigenvalues +-1)."""

    label: str
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

    def eigenbasis(self) -> np.ndarray:
        """Unitary whose column 0 is the +1 eigenvector, column 1 the -1."""
        _, vecs = np.linalg.eigh(self.matrix)
        # eigh sorts eigenvalues ascending, so the -1 vector comes first
        return vecs[:, ::-1]


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit depolarizing probability."""

    p_dep: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_dep <= 1.0:
            raise DomainError(f"p_dep must lie in [0, 1], got {self.p_dep!r}")


def _check_ghz_size(n_qubits: int) -> None:
    if not 2 <= n_qubits <= MAX_QUBITS:
        raise SizeOutOfRangeError(
            f"n_qubits must lie in [2, {MAX_QUBITS}] for exact simulation, got {n_qubits}"
        )


def make_ghz(n_qubits: int) -> PureState:
    """GHZ state (|0...0> + |1...1>)/sqrt(2) on 2..12 qubits."""
    _check_ghz_size(n_qubits)
    amp = np.zeros(2**n_qubits, dtype=complex)
    amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
    return PureState(n_qubits, amp)


@dataclass(frozen=True)
class GHZState:
    """GHZ state on 2..12 qubits after per-qubit depolarizing with probability ``p_dep``."""

    n_qubits: int
    p_dep: float = 0.0

    def __post_init__(self) -> None:
        _check_ghz_size(self.n_qubits)
        NoiseModel(self.p_dep)  # the same [0, 1] check and error


def _depolarize_qubit(rho: np.ndarray, n_qubits: int, qubit: int, p: float) -> np.ndarray:
    """Apply rho -> (1-p) rho + p (I/2 (x) tr_q rho) on one qubit."""
    da = 2**qubit
    db = 2 ** (n_qubits - qubit - 1)
    t = rho.reshape(da, 2, db, da, 2, db)
    partial = t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]
    out = (1.0 - p) * t
    out[:, 0, :, :, 0, :] += (p / 2.0) * partial
    out[:, 1, :, :, 1, :] += (p / 2.0) * partial
    return out.reshape(2**n_qubits, 2**n_qubits)


def depolarize_each(
    state: Union[PureState, MixedState, GHZState], noise: NoiseModel
) -> Union[MixedState, GHZState]:
    """Apply the depolarizing channel independently to every qubit.

    A ``GHZState`` stays in closed form: the two channels compose into one
    with probability 1 - (1 - p0)(1 - p), written p0 + (1 - p0) p so that
    p0 = 0 or p = 0 returns the other probability exactly.
    """
    if isinstance(state, GHZState):
        return GHZState(state.n_qubits, state.p_dep + (1.0 - state.p_dep) * noise.p_dep)
    if isinstance(state, PureState):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    else:
        rho = state.matrix.copy()
    for q in range(state.n_qubits):
        rho = _depolarize_qubit(rho, state.n_qubits, q, noise.p_dep)
    return MixedState(state.n_qubits, rho)


def joint_distribution(
    state: Union[MixedState, GHZState], settings: Sequence[Observable]
) -> np.ndarray:
    """Born-rule outcome distribution for one observable per qubit.

    Entry b is Tr[rho (x)_k P_{b_k}] with P the eigenprojectors of party k's
    observable; party 0 occupies the most significant bit of the index.
    """
    n = state.n_qubits
    if len(settings) != n:
        raise DimensionMismatchError(f"need {n} observables, got {len(settings)}")
    if isinstance(state, GHZState):
        return _ghz_distribution(state.p_dep, settings)
    t = state.matrix.reshape((2,) * (2 * n))
    for q, obs in enumerate(settings):
        u = obs.eigenbasis()
        t = np.moveaxis(np.tensordot(u.conj().T, t, axes=(1, q)), 0, q)
        t = np.moveaxis(np.tensordot(t, u, axes=(n + q, 0)), -1, n + q)
    probs = np.diagonal(t.reshape(2**n, 2**n)).real.copy()
    np.clip(probs, 0.0, None, out=probs)
    return probs


def _ghz_distribution(p: float, settings: Sequence[Observable]) -> np.ndarray:
    """P(b) = 1/2 Re sum_ij prod_k F_k[i, j, b_k] (module docstring), party 0 first."""
    bases = [obs.eigenbasis() for obs in settings]
    probs = np.zeros(2 ** len(settings))
    for i in (0, 1):
        for j in (0, 1):
            term = np.ones(1, dtype=complex)
            for u in bases:
                f = (1.0 - p) * u[i].conj() * u[j] + (p / 2.0 if i == j else 0.0)
                term = np.multiply.outer(term, f).ravel()  # kron(term, f), without its overhead
            probs += term.real
    probs *= 0.5
    np.clip(probs, 0.0, None, out=probs)
    return probs


def outcome_bits(idx: np.ndarray, n_qubits: int) -> np.ndarray:
    """uint8 outcome bits of integer outcome indices: one row per index, party 0 first."""
    shifts = np.arange(n_qubits - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
