"""Tests for the exact state/measurement substrate."""

import itertools
import math

import numpy as np
import pytest

from dicka import (
    DimensionMismatchError,
    DomainError,
    GHZState,
    MixedState,
    NoiseModel,
    Observable,
    PureState,
    SizeOutOfRangeError,
    depolarize_each,
    honest_settings,
    joint_distribution,
    make_ghz,
)
from dicka.quantum import PAULI_I, PAULI_X, PAULI_Z, outcome_bits

SQRT2 = math.sqrt(2.0)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


# --- independent oracle: depolarizing via the Pauli-Kraus sum -------------

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
    state = make_ghz(2)
    expected = np.array([1 / SQRT2, 0.0, 0.0, 1 / SQRT2])
    assert np.allclose(state.amplitudes, expected, atol=1e-15)


def test_make_ghz_three_qubits():
    state = make_ghz(3)
    assert abs(state.amplitudes[0] - 1 / SQRT2) < 1e-15
    assert abs(state.amplitudes[7] - 1 / SQRT2) < 1e-15
    assert np.all(state.amplitudes[1:7] == 0)


def test_make_ghz_size_bounds():
    with pytest.raises(SizeOutOfRangeError):
        make_ghz(13)
    with pytest.raises(SizeOutOfRangeError):
        make_ghz(1)


def test_pure_state_normalisation_enforced():
    with pytest.raises(DomainError):
        PureState(1, np.array([1.0, 1.0]))


def test_depolarize_identity_channel():
    state = make_ghz(3)
    rho = depolarize_each(state, NoiseModel(0.0))
    expected = np.outer(state.amplitudes, state.amplitudes.conj())
    assert np.max(np.abs(rho.matrix - expected)) < 1e-12


def test_depolarize_full_on_single_qubit():
    plus = PureState(1, np.array([1.0, 1.0]) / SQRT2)
    rho = depolarize_each(plus, NoiseModel(1.0))
    assert np.max(np.abs(rho.matrix - PAULI_I / 2)) < 1e-12


def test_depolarize_matches_kraus_oracle():
    for n in (2, 3, 4):
        state = make_ghz(n)
        for p in (0.1, 0.37, 0.9):
            got = depolarize_each(state, NoiseModel(p)).matrix
            want = _kraus_depolarize(np.outer(state.amplitudes, state.amplitudes.conj()), n, p)
            assert np.max(np.abs(got - want)) < 1e-10


def test_depolarized_ghz3_symmetry():
    rho = depolarize_each(make_ghz(3), NoiseModel(0.1)).matrix
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-10
    assert abs(rho[0, 0] - rho[7, 7]) < 1e-12


def test_channel_sanity_over_p_grid():
    for n in (2, 3, 4):
        state = make_ghz(n)
        for p in np.linspace(0.0, 1.0, 11):
            rho = depolarize_each(state, NoiseModel(float(p))).matrix
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho)[0] >= -1e-10


def _matrices_are(observables, matrices):
    return len(observables) == len(matrices) and all(
        np.array_equal(obs.matrix, m) for obs, m in zip(observables, matrices)
    )


def test_honest_settings_mapping():
    zpx = (PAULI_Z + PAULI_X) / np.sqrt(2.0)
    zmx = (PAULI_Z - PAULI_X) / np.sqrt(2.0)
    for n in (2, 3, 5):
        s = honest_settings(n)
        assert _matrices_are(s.alice, [PAULI_Z, PAULI_X])
        assert _matrices_are(s.bob1, [zpx, zmx])
        assert _matrices_are(s.rest, [PAULI_X] * (n - 2))
        assert _matrices_are(s.key, [PAULI_Z] * n)
        assert s.n_parties == n
        for x in (0, 1):
            for y in (0, 1):
                question = s.question(x, y)
                assert len(question) == n
                assert question[0] is s.alice[x] and question[1] is s.bob1[y]
                assert all(got is want for got, want in zip(question[2:], s.rest))


def test_observables_are_involutions():
    s = honest_settings(3)
    for obs in (*s.alice, *s.bob1, *s.rest, *s.key):
        assert np.max(np.abs(obs.matrix @ obs.matrix - PAULI_I)) < 1e-12


def test_outcome_bits_repack_to_index():
    for n in range(1, 9):
        idx = np.arange(2**n)
        bits = outcome_bits(idx, n)
        assert bits.dtype == np.uint8 and bits.shape == (2**n, n)
        weights = 1 << np.arange(n - 1, -1, -1)  # party 0 is the most significant bit
        assert np.array_equal(bits.astype(np.int64) @ weights, idx)


def test_joint_distribution_ghz_all_z():
    for n in (2, 3, 5):
        state = depolarize_each(make_ghz(n), NoiseModel(0.0))
        dist = joint_distribution(state, honest_settings(n).key)
        assert abs(dist[0] - 0.5) < 1e-12
        assert abs(dist[-1] - 0.5) < 1e-12
        assert np.max(np.abs(dist[1:-1])) < 1e-12


def test_joint_distribution_single_qubit():
    zero = PureState(1, np.array([1.0, 0.0])).density_matrix()
    dist = joint_distribution(zero, [Observable("Z", PAULI_Z)])
    assert abs(dist[0] - 1.0) < 1e-12


def test_joint_distribution_correlator_oracle():
    # direct 4x4 matrix-trace oracle for <X (x) (Z+X)/sqrt2> on GHZ_2
    state = depolarize_each(make_ghz(2), NoiseModel(0.0))
    settings = honest_settings(2)
    obs_a = settings.alice[1]
    obs_b = settings.bob1[0]
    oracle = np.trace(state.matrix @ np.kron(obs_a.matrix, obs_b.matrix)).real
    dist = joint_distribution(state, [obs_a, obs_b])
    signs = np.array([1.0, -1.0, -1.0, 1.0])  # (-1)^(a xor b)
    assert abs(oracle - 1 / SQRT2) < 1e-12
    assert abs(float(signs @ dist) - oracle) < 1e-12


def test_joint_distribution_dimension_mismatch():
    state = depolarize_each(make_ghz(3), NoiseModel(0.0))
    with pytest.raises(DimensionMismatchError):
        joint_distribution(state, [Observable("Z", PAULI_Z)] * 2)


def test_born_rule_normalisation_all_setting_combos():
    # every party on every honest observable it can hold: Z and X, or Bob_1's three
    for n in range(2, 7):
        s = honest_settings(n)
        z, x = s.alice
        state = depolarize_each(make_ghz(n), NoiseModel(0.13))
        for rest in itertools.product((z, x), repeat=n - 2):
            for obs_a in s.alice:
                for obs_b in (*s.bob1, s.key[1]):
                    dist = joint_distribution(state, [obs_a, obs_b, *rest])
                    assert abs(float(dist.sum()) - 1.0) < 1e-10


def test_mixed_state_validation():
    bad = np.eye(4) / 4 + 0.1j * np.eye(4)
    with pytest.raises(DomainError):
        MixedState(2, bad)


# --- closed-form depolarized GHZ against the dense layer -------------------

def _random_observables(rng, n):
    """n random involutions n.sigma, with Y components, as a settings list."""
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return [Observable("r", ax * PAULI_X + ay * PAULI_Y + az * PAULI_Z) for ax, ay, az in axes]


def _closed_form_classes(n, rng):
    s = honest_settings(n)
    honest = [s.key] + [s.question(x, y) for x in (0, 1) for y in (0, 1)]
    return honest + [_random_observables(rng, n)]


@pytest.mark.parametrize("n", range(2, 11))
def test_ghz_state_matches_dense_distributions(n):
    rng = np.random.default_rng(1000 + n)
    for p in (0.0, 0.013, 0.2, 1.0):
        dense = depolarize_each(make_ghz(n), NoiseModel(p))
        closed = GHZState(n, p)
        for settings in _closed_form_classes(n, rng):
            want = joint_distribution(dense, settings)
            got = joint_distribution(closed, settings)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.max(np.abs(np.cumsum(got) - np.cumsum(want))) <= 1e-12


def test_ghz_state_depolarizes_like_dense():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        for p0, p1 in ((0.0, 0.013), (0.013, 0.2), (0.2, 1.0), (0.37, 0.0)):
            closed = depolarize_each(depolarize_each(GHZState(n), NoiseModel(p0)), NoiseModel(p1))
            assert isinstance(closed, GHZState)
            assert abs(closed.p_dep - (1 - (1 - p0) * (1 - p1))) < 1e-15
            dense = depolarize_each(depolarize_each(make_ghz(n), NoiseModel(p0)), NoiseModel(p1))
            for settings in _closed_form_classes(n, rng):
                got = joint_distribution(closed, settings)
                want = joint_distribution(dense, settings)
                assert np.max(np.abs(got - want)) <= 1e-12


def test_ghz_state_validation():
    for n in (1, 13):
        with pytest.raises(SizeOutOfRangeError):
            GHZState(n)
    for p in (-0.01, 1.01):
        with pytest.raises(DomainError):
            GHZState(3, p)
    with pytest.raises(DimensionMismatchError):
        joint_distribution(GHZState(3), [Observable("Z", PAULI_Z)] * 2)
