"""Tests for the exact state/measurement substrate."""

import itertools
import math

import numpy as np
import pytest

from dicka import (
    DimensionMismatchError,
    DomainError,
    GHZState,
    Observable,
    SizeOutOfRangeError,
    depolarize_each,
    honest_settings,
    joint_distribution,
)
from dicka.game import ROUND_CLASSES
from dicka.quantum import MAX_QUBITS, PAULI_I, PAULI_X, PAULI_Z, outcome_bits

SQRT2 = math.sqrt(2.0)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


# --- independent oracles: the dense 2**N x 2**N density matrix -------------

def _make_ghz(n_qubits):
    """GHZ amplitudes (|0...0> + |1...1>)/sqrt2."""
    amp = np.zeros(2**n_qubits, dtype=complex)
    amp[0] = amp[-1] = 1 / SQRT2
    return amp


def _depolarize(rho, n_qubits, p):
    """rho -> (1 - p) rho + p (I/2 (x) tr_q rho) on every qubit q, by reshaping."""
    for q in range(n_qubits):
        da, db = 2**q, 2 ** (n_qubits - q - 1)
        t = rho.reshape(da, 2, db, da, 2, db)
        partial = t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]
        out = (1.0 - p) * t
        out[:, 0, :, :, 0, :] += (p / 2.0) * partial
        out[:, 1, :, :, 1, :] += (p / 2.0) * partial
        rho = out.reshape(rho.shape)
    return rho


def _dense_ghz(n_qubits, p=0.0):
    """Density matrix of GHZ_N after per-qubit depolarizing with p."""
    amp = _make_ghz(n_qubits)
    return _depolarize(np.outer(amp, amp.conj()), n_qubits, p)


def _eigenbasis(obs):
    """Unitary whose column 0 is the +1 eigenvector of the observable, column 1 the -1."""
    _, vecs = np.linalg.eigh(obs.matrix)
    # eigh sorts eigenvalues ascending, so the -1 vector comes first
    return vecs[:, ::-1]


def _dense_distribution(rho, settings):
    """Born-rule table Tr[rho (x)_k P_{b_k}] by tensordot contraction, party 0 first."""
    n = len(settings)
    t = rho.reshape((2,) * (2 * n))
    for q, obs in enumerate(settings):
        u = _eigenbasis(obs)
        t = np.moveaxis(np.tensordot(u.conj().T, t, axes=(1, q)), 0, q)
        t = np.moveaxis(np.tensordot(t, u, axes=(n + q, 0)), -1, n + q)
    probs = np.diagonal(t.reshape(2**n, 2**n)).real.copy()
    np.clip(probs, 0.0, None, out=probs)
    return probs


def _kraus_depolarize(rho, n_qubits, p):
    """(1 - 3p/4) rho + p/4 (X rho X + Y rho Y + Z rho Z), per qubit."""
    for q in range(n_qubits):
        acc = np.zeros_like(rho)
        for coeff, pauli in ((1 - 3 * p / 4, PAULI_I), (p / 4, PAULI_X), (p / 4, PAULI_Y), (p / 4, PAULI_Z)):
            op = np.array([[1.0]], dtype=complex)
            for k in range(n_qubits):
                op = np.kron(op, pauli if k == q else PAULI_I)
            acc += coeff * (op @ rho @ op.conj().T)
        rho = acc
    return rho


def test_make_ghz_two_qubits():
    expected = np.array([1 / SQRT2, 0.0, 0.0, 1 / SQRT2])
    assert np.allclose(_make_ghz(2), expected, atol=1e-15)


def test_make_ghz_three_qubits():
    amp = _make_ghz(3)
    assert abs(amp[0] - 1 / SQRT2) < 1e-15
    assert abs(amp[7] - 1 / SQRT2) < 1e-15
    assert np.all(amp[1:7] == 0)


def test_depolarize_identity_channel():
    amp = _make_ghz(3)
    assert np.max(np.abs(_dense_ghz(3, 0.0) - np.outer(amp, amp.conj()))) < 1e-12
    assert depolarize_each(GHZState(3), 0.0) == GHZState(3, 0.0)


def test_depolarize_full_on_single_qubit():
    plus = np.array([1.0, 1.0], dtype=complex) / SQRT2
    rho = _depolarize(np.outer(plus, plus.conj()), 1, 1.0)
    assert np.max(np.abs(rho - PAULI_I / 2)) < 1e-12


def test_depolarize_matches_kraus_oracle():
    for n in (2, 3, 4):
        amp = _make_ghz(n)
        for p in (0.1, 0.37, 0.9):
            got = _dense_ghz(n, p)
            want = _kraus_depolarize(np.outer(amp, amp.conj()), n, p)
            assert np.max(np.abs(got - want)) < 1e-10


def test_depolarized_ghz3_symmetry():
    rho = _dense_ghz(3, 0.1)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-10
    assert abs(rho[0, 0] - rho[7, 7]) < 1e-12


def test_channel_sanity_over_p_grid():
    for n in (2, 3, 4):
        for p in np.linspace(0.0, 1.0, 11):
            rho = _dense_ghz(n, float(p))
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho)[0] >= -1e-10


def _matrices_are(observables, matrices):
    return len(observables) == len(matrices) and all(
        np.array_equal(obs.matrix, m) for obs, m in zip(observables, matrices)
    )


def test_honest_settings_mapping():
    # class 0 is the key round, class 1 + 2x + y1 the test question (x, y1)
    alice = [PAULI_Z, PAULI_X]
    bob1 = [(PAULI_Z + PAULI_X) / np.sqrt(2.0), (PAULI_Z - PAULI_X) / np.sqrt(2.0)]
    assert ROUND_CLASSES.dtype == np.uint8
    assert ROUND_CLASSES.tolist() == [[0, 0, 2], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
    for n in (2, 3, 5):
        s = honest_settings(n)
        assert len(s) == len(ROUND_CLASSES) == 5
        assert _matrices_are(s[0], [PAULI_Z] * n)
        for x in (0, 1):
            for y in (0, 1):
                question = s[1 + 2 * x + y]
                assert ROUND_CLASSES[1 + 2 * x + y].tolist() == [1, x, y]
                assert _matrices_are(question, [alice[x], bob1[y]] + [PAULI_X] * (n - 2))


def test_observables_are_involutions():
    for obs in (obs for observables in honest_settings(3) for obs in observables):
        assert np.max(np.abs(obs.matrix @ obs.matrix - PAULI_I)) < 1e-12


def test_outcome_bits_repack_to_index():
    for n in range(1, MAX_QUBITS + 1):
        idx = np.arange(2**n)
        bits = outcome_bits(idx, n)
        assert bits.dtype == np.uint8 and bits.shape == (2**n, n)
        weights = 1 << np.arange(n - 1, -1, -1)  # party 0 is the most significant bit
        assert np.array_equal(bits.astype(np.int64) @ weights, idx)


def test_joint_distribution_ghz_all_z():
    for n in (2, 3, 5):
        dist = joint_distribution(GHZState(n), honest_settings(n)[0])
        assert abs(dist[0] - 0.5) < 1e-12
        assert abs(dist[-1] - 0.5) < 1e-12
        assert np.max(np.abs(dist[1:-1])) < 1e-12


def test_joint_distribution_single_qubit():
    zero = np.diag([1.0, 0.0]).astype(complex)
    dist = _dense_distribution(zero, [Observable(PAULI_Z)])
    assert abs(dist[0] - 1.0) < 1e-12


def test_joint_distribution_correlator_oracle():
    # direct 4x4 matrix-trace oracle for <X (x) (Z+X)/sqrt2> on GHZ_2
    obs_a, obs_b = honest_settings(2)[3]  # x = 1, y1 = 0
    oracle = np.trace(_dense_ghz(2) @ np.kron(obs_a.matrix, obs_b.matrix)).real
    dist = joint_distribution(GHZState(2), [obs_a, obs_b])
    signs = np.array([1.0, -1.0, -1.0, 1.0])  # (-1)^(a xor b)
    assert abs(oracle - 1 / SQRT2) < 1e-12
    assert abs(float(signs @ dist) - oracle) < 1e-12


def test_joint_distribution_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        joint_distribution(GHZState(3), [Observable(PAULI_Z)] * 2)


def test_born_rule_normalisation_all_setting_combos():
    # every party on every honest observable it can hold: Z and X, or Bob_1's three
    for n in range(2, 7):
        s = honest_settings(n)
        z, x = s[1][0], s[3][0]  # Alice's observables for x = 0 and x = 1
        state = depolarize_each(GHZState(n), 0.13)
        for rest in itertools.product((z, x), repeat=n - 2):
            for obs_a in (z, x):
                for obs_b in (s[1][1], s[2][1], s[0][1]):
                    dist = joint_distribution(state, [obs_a, obs_b, *rest])
                    assert abs(float(dist.sum()) - 1.0) < 1e-10


# --- closed-form depolarized GHZ against the dense oracle -------------------

def _random_observables(rng, n):
    """n random involutions n.sigma, with Y components, as a settings list."""
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return [Observable(ax * PAULI_X + ay * PAULI_Y + az * PAULI_Z) for ax, ay, az in axes]


def _closed_form_classes(n, rng):
    return honest_settings(n) + [_random_observables(rng, n)]


@pytest.mark.parametrize("n", range(2, 11))
def test_ghz_state_matches_dense_distributions(n):
    rng = np.random.default_rng(1000 + n)
    for p in (0.0, 0.013, 0.2, 1.0):
        dense = _dense_ghz(n, p)
        closed = GHZState(n, p)
        for settings in _closed_form_classes(n, rng):
            want = _dense_distribution(dense, settings)
            got = joint_distribution(closed, settings)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.max(np.abs(np.cumsum(got) - np.cumsum(want))) <= 1e-12


def test_ghz_state_depolarizes_like_dense():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        for p0, p1 in ((0.0, 0.013), (0.013, 0.2), (0.2, 1.0), (0.37, 0.0)):
            closed = depolarize_each(depolarize_each(GHZState(n), p0), p1)
            assert isinstance(closed, GHZState)
            assert abs(closed.p_dep - (1 - (1 - p0) * (1 - p1))) < 1e-15
            dense = _depolarize(_dense_ghz(n, p0), n, p1)
            for settings in _closed_form_classes(n, rng):
                got = joint_distribution(closed, settings)
                want = _dense_distribution(dense, settings)
                assert np.max(np.abs(got - want)) <= 1e-12


def test_ghz_state_validation():
    for n in (1, 13):
        with pytest.raises(SizeOutOfRangeError):
            GHZState(n)
    for p in (-0.01, 1.01):
        with pytest.raises(DomainError):
            GHZState(3, p)
        # a fully depolarized state would compose any p into 1 + 0 * p = 1
        with pytest.raises(DomainError):
            depolarize_each(GHZState(3, 1.0), p)
    with pytest.raises(DimensionMismatchError):
        joint_distribution(GHZState(3), [Observable(PAULI_Z)] * 2)
