"""The Parity-CHSH game.

Alice and Bob_1 receive uniform bits x and y; every other Bob receives the
fixed input 1.  With b-bar the parity of the outputs of Bob_2..Bob_{N-1},
the players win iff a XOR b_1 == x * ((y + b-bar) mod 2).  With no extra
Bobs the parity is empty (0) and the game is exactly CHSH.

This module evaluates the predicate, computes the exact classical value by
exhaustive enumeration of deterministic strategies, holds the honest
observables of every round class (``honest_settings``), and computes the
quantum winning probability of a depolarized GHZ state (``GHZState``) under
a settings bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

import numpy as np

from .errors import DimensionMismatchError, SizeOutOfRangeError
from .quantum import (
    PAULI_X,
    PAULI_Z,
    GHZState,
    Observable,
    joint_distribution,
    outcome_bits,
)


def parity_chsh_wins_bulk(x, y, a, b1, rest_parity) -> np.ndarray:
    """Whether a XOR b1 == x * ((y + rest_parity) mod 2), elementwise over arrays of bits.

    Computed in uint8, where no intermediate exceeds 3: uint8 bits are used
    as they are, with no int64 copy.
    """
    x, y, a, b1, rest_parity = (np.asarray(v, dtype=np.uint8) for v in (x, y, a, b1, rest_parity))
    return (a ^ b1) == x * ((y + rest_parity) % 2) % 2


def classical_value(n_parties: int) -> Fraction:
    """Maximum winning probability over deterministic strategies, exactly.

    Enumerates all 4 * 4 * 2**(N-2) strategies (Alice's and Bob_1's answer
    tables, fixed bits for the rest) against the four uniform (x, y)
    questions; the result is an exact rational.
    """
    if not 2 <= n_parties <= 6:
        raise SizeOutOfRangeError(f"classical value enumeration supports 2..6 parties, got {n_parties}")
    # columns: a(0), a(1), b1(0), b1(1), the other Bobs' bits, then x, y
    plays = np.array(list(product((0, 1), repeat=n_parties + 4)), dtype=np.int64)
    x, y = plays[:, -2], plays[:, -1]
    a = np.where(x == 1, plays[:, 1], plays[:, 0])
    b1 = np.where(y == 1, plays[:, 3], plays[:, 2])
    parity = plays[:, 4:-2].sum(axis=1) & 1
    # (x, y) vary fastest, so each strategy owns four consecutive rows
    wins = parity_chsh_wins_bulk(x, y, a, b1, parity).reshape(-1, 4).sum(axis=1)
    return Fraction(int(wins.max()), 4)


_Z = Observable(PAULI_Z)
_X = Observable(PAULI_X)
_Z_PLUS_X = Observable((PAULI_Z + PAULI_X) / np.sqrt(2.0))
_Z_MINUS_X = Observable((PAULI_Z - PAULI_X) / np.sqrt(2.0))


@dataclass(frozen=True)
class SettingsBundle:
    """Observables per round class.

    Test rounds: Alice per x, Bob_1 per y, fixed for the rest.  Key rounds:
    one observable per party.
    """

    alice: tuple[Observable, Observable]
    bob1: tuple[Observable, Observable]
    rest: tuple[Observable, ...]
    key: tuple[Observable, ...]

    @property
    def n_parties(self) -> int:
        return 2 + len(self.rest)

    def question(self, x: int, y: int) -> list[Observable]:
        """Every party's observable on the test question (x, y), party 0 first."""
        return [self.alice[x], self.bob1[y], *self.rest]


def honest_settings(n_parties: int) -> SettingsBundle:
    """Observables of the honest strategy for every round class.

    Test rounds: Alice Z/X, Bob_1 (Z+-X)/sqrt2, the other Bobs X for their
    fixed input 1.  Key rounds: everyone Z.
    """
    if n_parties < 2:
        raise SizeOutOfRangeError("need at least two parties")
    return SettingsBundle(
        alice=(_Z, _X),
        bob1=(_Z_PLUS_X, _Z_MINUS_X),
        rest=(_X,) * (n_parties - 2),
        key=(_Z,) * n_parties,
    )


def _questions(
    state: GHZState, settings: SettingsBundle
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per (x, y) question: Born-rule outcome distribution, win mask and outcome parity."""
    n = settings.n_parties
    if state.n_qubits != n:
        raise DimensionMismatchError(
            f"state has {state.n_qubits} qubits but settings describe {n} parties"
        )
    bits = outcome_bits(np.arange(2**n), n)
    a, b1, parity = bits[:, 0], bits[:, 1], bits[:, 2:].sum(axis=1) & 1
    for x in (0, 1):
        for y in (0, 1):
            dist = joint_distribution(state, settings.question(x, y))
            yield dist, parity_chsh_wins_bulk(x, y, a, b1, parity), parity


def quantum_win_probability(state: GHZState, settings: SettingsBundle) -> float:
    """Winning probability under uniform (x, y), evaluated by the Born rule."""
    total = 0.0
    for dist, wins, _ in _questions(state, settings):
        total += float(dist[wins].sum())
    return total / 4.0


def conditioned_win_probabilities(
    state: GHZState, settings: SettingsBundle
) -> dict[int, tuple[float, float]]:
    """Map parity value -> (probability of that parity, conditional win probability).

    The parity marginal is input-independent (no signalling), so the weights
    are averaged over the four question pairs; the convex combination of the
    conditional values reproduces quantum_win_probability.
    """
    mass = {0: 0.0, 1: 0.0}
    win_mass = {0: 0.0, 1: 0.0}
    for dist, wins, parity in _questions(state, settings):
        for par in (0, 1):
            sel = parity == par
            mass[par] += float(dist[sel].sum()) / 4.0
            win_mass[par] += float(dist[sel & wins].sum()) / 4.0
    return {par: (mass[par], win_mass[par] / mass[par] if mass[par] > 0 else 0.0) for par in (0, 1)}
