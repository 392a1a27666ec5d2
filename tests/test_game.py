"""Tests for the Parity-CHSH game: predicate, classical value, quantum value."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from dicka import (
    GHZState,
    SizeOutOfRangeError,
    classical_value,
    conditioned_win_probabilities,
    depolarize_each,
    honest_settings,
    joint_distribution,
    pexp_formula,
    qber_to_pdep,
    quantum_win_probability,
)
from dicka.game import parity_chsh_wins_bulk

TSIRELSON = 0.5 + 0.5 / math.sqrt(2.0)


def _honest_state(n, qber=0.0):
    return depolarize_each(GHZState(n), qber_to_pdep(qber))


def test_predicate_examples():
    assert parity_chsh_wins_bulk(0, 0, 0, 0, 0)
    assert not parity_chsh_wins_bulk(1, 1, 0, 0, 0)  # rest bits "0"
    assert parity_chsh_wins_bulk(1, 1, 0, 0, 1)  # rest bits "1"


def test_predicate_reduces_to_chsh_without_extra_bobs():
    # empty parity: win iff a xor b1 == x*y
    x, y, a, b1 = np.array(list(product((0, 1), repeat=4))).T
    wins = parity_chsh_wins_bulk(x, y, a, b1, np.zeros_like(x))
    assert wins.tolist() == [(ai ^ bi) == xi * yi for xi, yi, ai, bi in zip(x, y, a, b1)]


def test_bulk_predicate_matches_scalar():
    # all 32 (x, y, a, b1, rest parity) cases at once, each checked against
    # the definition a XOR b1 == x * ((y + parity) mod 2)
    cases = list(product((0, 1), repeat=5))
    x, y, a, b1, parity = np.array(cases).T
    wins = parity_chsh_wins_bulk(x, y, a, b1, parity)
    assert wins.shape == (32,)
    assert wins.tolist() == [(ai ^ bi) == xi * ((yi + pi) % 2) for xi, yi, ai, bi, pi in cases]


def _enumerated_classical_value(n_parties):
    """Oracle: every deterministic strategy, with each other Bob's bit fixed apart, 4 * 4 * 2**(N-2) of them."""
    # columns: a(0), a(1), b1(0), b1(1), the other Bobs' bits, then x, y
    plays = np.array(list(product((0, 1), repeat=n_parties + 4)), dtype=np.int64)
    x, y = plays[:, -2], plays[:, -1]
    a = np.where(x == 1, plays[:, 1], plays[:, 0])
    b1 = np.where(y == 1, plays[:, 3], plays[:, 2])
    parity = plays[:, 4:-2].sum(axis=1) & 1
    # (x, y) vary fastest, so each strategy owns four consecutive rows
    wins = parity_chsh_wins_bulk(x, y, a, b1, parity).reshape(-1, 4).sum(axis=1)
    return Fraction(int(wins.max()), 4)


def test_classical_value_exact():
    for n in (2, 3, 4, 5, 6):
        assert classical_value(n) == _enumerated_classical_value(n) == Fraction(3, 4)
    for n in (7, 8, 12, 13, 40):
        assert classical_value(n) == Fraction(3, 4)


def test_classical_value_bounds():
    # the parity reduction holds for every N >= 2, so only N < 2 is refused
    for n in (1, 0, -3):
        with pytest.raises(SizeOutOfRangeError):
            classical_value(n)


def test_party_count_must_be_an_integer():
    for entry_point in (GHZState, classical_value, honest_settings):
        for bad in (3.5, 3.0):
            with pytest.raises(SizeOutOfRangeError):
                entry_point(bad)
    assert GHZState(np.int64(3)).n_qubits == 3
    assert classical_value(np.int64(3)) == Fraction(3, 4)
    assert honest_settings(np.int64(3)) == honest_settings(3)


def test_quantum_value_noiseless():
    for n in (2, 3, 4, 5, 6):
        p = quantum_win_probability(_honest_state(n))
        assert abs(p - TSIRELSON) < 1e-9


def test_quantum_value_fully_depolarized():
    for n in (2, 3, 4):
        state = depolarize_each(GHZState(n), 1.0)
        p = quantum_win_probability(state)
        assert abs(p - 0.5) < 1e-9


def test_quantum_value_matches_closed_form_at_qber():
    # honest-model closed form, frozen from the exact Born-rule evaluation
    p = quantum_win_probability(_honest_state(3, 0.05))
    assert abs(p - pexp_formula(3, 0.05)) < 1e-9
    assert abs(p - 0.8100336142482089) < 1e-9


def _conditional_chsh_win(state, settings, parity_value, flip_y):
    """Oracle: condition the joint distribution on the rest-parity, then score
    with the plain CHSH predicate (optionally with the y question flipped)."""
    n = state.n_qubits
    idx = np.arange(2**n)
    a = (idx >> (n - 1)) & 1
    b1 = (idx >> (n - 2)) & 1
    parities = np.array([bin(i & ((1 << (n - 2)) - 1)).count("1") & 1 for i in idx])
    sel = parities == parity_value
    mass = 0.0
    win_mass = 0.0
    for x in (0, 1):
        for y in (0, 1):
            dist = joint_distribution(state, settings[1 + 2 * x + y])
            y_eff = y ^ 1 if flip_y else y
            wins = (a ^ b1) == (x * y_eff)
            mass += float(dist[sel].sum()) / 4
            win_mass += float(dist[sel & wins].sum()) / 4
    return mass, win_mass / mass


def test_only_occurring_parities_are_returned():
    # at N = 2 there are no other Bobs, so their parity is always 0; from
    # N = 3 on both parities occur, even without noise
    for n in (2, 3, 6, 12):
        for qber in (0.0, 0.03):
            conditioned = conditioned_win_probabilities(_honest_state(n, qber))
            assert sorted(conditioned) == ([0] if n == 2 else [0, 1])
            assert all(weight > 0 for weight, _ in conditioned.values())


def test_parity_conditioning_reduces_to_chsh():
    # given parity 0 the game is CHSH; given parity 1 it is CHSH with y flipped
    for n in (3, 4, 5):
        for qber in (0.0, 0.03):
            state = _honest_state(n, qber)
            conditioned = conditioned_win_probabilities(state)
            for parity_value, flip in ((0, False), (1, True)):
                mass, cond_win = _conditional_chsh_win(state, honest_settings(n), parity_value, flip)
                assert abs(mass - conditioned[parity_value][0]) < 1e-10
                assert abs(cond_win - conditioned[parity_value][1]) < 1e-10


def test_convex_decomposition():
    for n in (3, 4, 5):
        for qber in (0.0, 0.02, 0.05):
            state = _honest_state(n, qber)
            total = quantum_win_probability(state)
            parts = conditioned_win_probabilities(state)
            recombined = sum(mass * cond for mass, cond in parts.values())
            assert abs(total - recombined) < 1e-10


def test_monotone_degradation_in_noise():
    for n in (3, 4, 5, 6):
        previous = 1.0
        for p_dep in np.linspace(0.0, 1.0, 50):
            state = depolarize_each(GHZState(n), float(p_dep))
            value = quantum_win_probability(state)
            assert value <= previous + 1e-12
            previous = value
