"""Tests for the exact state/measurement substrate."""

import itertools
import math

import numpy as np
import pytest

from dicka import (
    DimensionMismatchError,
    DomainError,
    InvalidInputError,
    MixedState,
    NoiseModel,
    PureState,
    SizeOutOfRangeError,
    depolarize_each,
    joint_distribution,
    make_ghz,
    setting_observable,
)
from dicka.quantum import PAULI_I, PAULI_X, PAULI_Z

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


def test_setting_observable_mapping():
    assert np.allclose(setting_observable("alice", 0).matrix, PAULI_Z)
    assert np.allclose(setting_observable("alice", 1).matrix, PAULI_X)
    assert np.allclose(setting_observable("bob1", 0).matrix, (PAULI_Z + PAULI_X) / SQRT2)
    assert np.allclose(setting_observable("bob1", 1).matrix, (PAULI_Z - PAULI_X) / SQRT2)
    assert np.allclose(setting_observable("bob1", 2).matrix, PAULI_Z)
    assert np.allclose(setting_observable("bobk", 0).matrix, PAULI_Z)
    assert np.allclose(setting_observable("bobk", 1).matrix, PAULI_X)


def test_setting_observable_domain():
    with pytest.raises(InvalidInputError):
        setting_observable("bobk", 2)
    with pytest.raises(InvalidInputError):
        setting_observable("alice", 2)
    with pytest.raises(InvalidInputError):
        setting_observable("carol", 0)


def test_observables_are_involutions():
    for role, inputs in (("alice", (0, 1)), ("bob1", (0, 1, 2)), ("bobk", (0, 1))):
        for inp in inputs:
            m = setting_observable(role, inp).matrix
            assert np.max(np.abs(m @ m - PAULI_I)) < 1e-12


def test_joint_distribution_ghz_all_z():
    for n in (2, 3, 5):
        state = depolarize_each(make_ghz(n), NoiseModel(0.0))
        z = setting_observable("alice", 0)
        dist = joint_distribution(state, [z] * n)
        assert abs(dist[0] - 0.5) < 1e-12
        assert abs(dist[-1] - 0.5) < 1e-12
        assert np.max(np.abs(dist[1:-1])) < 1e-12


def test_joint_distribution_single_qubit():
    zero = PureState(1, np.array([1.0, 0.0])).density_matrix()
    dist = joint_distribution(zero, [setting_observable("alice", 0)])
    assert abs(dist[0] - 1.0) < 1e-12


def test_joint_distribution_correlator_oracle():
    # direct 4x4 matrix-trace oracle for <X (x) (Z+X)/sqrt2> on GHZ_2
    state = depolarize_each(make_ghz(2), NoiseModel(0.0))
    obs_a = setting_observable("alice", 1)
    obs_b = setting_observable("bob1", 0)
    oracle = np.trace(state.matrix @ np.kron(obs_a.matrix, obs_b.matrix)).real
    dist = joint_distribution(state, [obs_a, obs_b])
    signs = np.array([1.0, -1.0, -1.0, 1.0])  # (-1)^(a xor b)
    assert abs(oracle - 1 / SQRT2) < 1e-12
    assert abs(float(signs @ dist) - oracle) < 1e-12


def test_joint_distribution_dimension_mismatch():
    state = depolarize_each(make_ghz(3), NoiseModel(0.0))
    with pytest.raises(DimensionMismatchError):
        joint_distribution(state, [setting_observable("alice", 0)] * 2)


def test_born_rule_normalisation_all_setting_combos():
    for n in range(2, 7):
        state = depolarize_each(make_ghz(n), NoiseModel(0.13))
        rest_inputs = itertools.product((0, 1), repeat=n - 2)
        for rest in rest_inputs:
            for x in (0, 1):
                for y in (0, 1, 2):
                    settings = [
                        setting_observable("alice", x),
                        setting_observable("bob1", y),
                        *[setting_observable("bobk", r) for r in rest],
                    ]
                    dist = joint_distribution(state, settings)
                    assert abs(float(dist.sum()) - 1.0) < 1e-10


def test_mixed_state_validation():
    bad = np.eye(4) / 4 + 0.1j * np.eye(4)
    with pytest.raises(DomainError):
        MixedState(2, bad)
