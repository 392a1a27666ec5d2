"""The Parity-CHSH game.

Alice and Bob_1 receive uniform bits x and y; every other Bob receives the
fixed input 1.  With b-bar the parity of the outputs of Bob_2..Bob_{N-1},
the players win iff a XOR b_1 == x * ((y + b-bar) mod 2).  With no extra
Bobs the parity is empty (0) and the game is exactly CHSH.

This module is the one home of the round classes: ``ROUND_CLASSES`` lists
them (class 0 is the key round, class 1 + 2x + y1 the test question
(x, y1)) and ``honest_settings`` gives every party's honest observable in
each, indexed by class id; the protocol samples, stores and scores rounds
by these ids.  The module also evaluates the predicate, computes the exact
classical value by enumerating deterministic strategies, and
computes the quantum winning probability of a depolarized GHZ state
(``GHZState``) under the honest settings, in total and conditioned on the
parity of the other Bobs' outputs.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from itertools import product
from typing import Iterator

import numpy as np

from .errors import SizeOutOfRangeError
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
    """Maximum winning probability over deterministic strategies, exactly, for any N >= 2.

    The predicate sees the other Bobs only through the parity c of their
    outputs, a constant in a deterministic strategy: 0 at N = 2, either value
    from N = 3 on.  So Alice's and Bob_1's answer tables and c, against the
    four uniform (x, y) questions, cover every strategy.
    """
    if not isinstance(n_parties, numbers.Integral) or n_parties < 2:
        raise SizeOutOfRangeError(f"the game needs at least two parties, as an integer, got {n_parties!r}")
    # columns: a(0), a(1), b1(0), b1(1), c, then x, y
    plays = np.array(list(product(*[(0, 1)] * 4, range(min(n_parties - 1, 2)), (0, 1), (0, 1))))
    c, x, y = plays[:, 4:].T
    a = np.where(x == 1, plays[:, 1], plays[:, 0])
    b1 = np.where(y == 1, plays[:, 3], plays[:, 2])
    # (x, y) vary fastest, so each strategy owns four consecutive rows
    wins = parity_chsh_wins_bulk(x, y, a, b1, c).reshape(-1, 4).sum(axis=1)
    return Fraction(int(wins.max()), 4)


# Row c is (t, x, y1) of round class c: class 0 is the key round (t = 0,
# x = 0, y1 = 2) and class 1 + 2x + y1 the test question (x, y1).  The
# transcript keeps each round's class id and decodes its t, x and y1 here.
ROUND_CLASSES = np.array([[0, 0, 2], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=np.uint8)

_Z = Observable(PAULI_Z)
_X = Observable(PAULI_X)
_Z_PLUS_X = Observable((PAULI_Z + PAULI_X) / np.sqrt(2.0))
_Z_MINUS_X = Observable((PAULI_Z - PAULI_X) / np.sqrt(2.0))


def honest_settings(n_parties: int) -> list[list[Observable]]:
    """Every party's honest observable in each round class, party 0 first, indexed by class id.

    Key rounds (class 0): everyone Z.  Test question (x, y1) (class
    1 + 2x + y1): Alice Z/X, Bob_1 (Z+-X)/sqrt2, the other Bobs X for their
    fixed input 1.
    """
    if not isinstance(n_parties, numbers.Integral) or n_parties < 2:
        raise SizeOutOfRangeError(f"need at least two parties, as an integer, got {n_parties!r}")
    alice, bob1, rest = (_Z, _X), (_Z_PLUS_X, _Z_MINUS_X), [_X] * (n_parties - 2)
    return [[_Z] * n_parties] + [[alice[x], bob1[y1], *rest] for _, x, y1 in ROUND_CLASSES[1:]]


def _questions(state: GHZState) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per test class 1..4 with the honest settings: outcome distribution, win mask and outcome parity."""
    n = state.n_qubits
    bits = outcome_bits(np.arange(2**n), n)
    a, b1, parity = bits[:, 0], bits[:, 1], bits[:, 2:].sum(axis=1) & 1
    for (_, x, y1), observables in zip(ROUND_CLASSES[1:], honest_settings(n)[1:]):
        dist = joint_distribution(state, observables)
        yield dist, parity_chsh_wins_bulk(x, y1, a, b1, parity), parity


def quantum_win_probability(state: GHZState) -> float:
    """Winning probability of the honest settings under uniform (x, y), evaluated by the Born rule."""
    total = 0.0
    for dist, wins, _ in _questions(state):
        total += float(dist[wins].sum())
    return total / 4.0


def conditioned_win_probabilities(state: GHZState) -> dict[int, tuple[float, float]]:
    """Map each parity that occurs -> (its probability, conditional win probability), honest settings.

    The parity marginal is input-independent (no signalling), so the weights
    are averaged over the four question pairs; the convex combination of the
    conditional values reproduces quantum_win_probability.
    """
    mass = {0: 0.0, 1: 0.0}
    win_mass = {0: 0.0, 1: 0.0}
    for dist, wins, parity in _questions(state):
        for par in (0, 1):
            sel = parity == par
            mass[par] += float(dist[sel].sum()) / 4.0
            win_mass[par] += float(dist[sel & wins].sum()) / 4.0
    return {par: (mass[par], win_mass[par] / mass[par]) for par in (0, 1) if mass[par] > 0}
