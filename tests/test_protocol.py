"""End-to-end and per-step tests of the protocol engine."""

import dataclasses
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from dicka import (
    DomainError,
    EpsilonBudget,
    GHZState,
    InvalidInputError,
    LengthMismatchError,
    MAX_QUBITS,
    ProtocolConfig,
    RateParams,
    SizeOutOfRangeError,
    Transcript,
    amplify,
    completeness_bound,
    depolarize_each,
    estimate_parameters,
    finite_key_length,
    honest_settings,
    joint_distribution,
    pexp_formula,
    qber_to_pdep,
    reconcile,
    run_protocol,
)
from dicka.game import _questions
from dicka.hashing import PackedBits
from dicka.protocol import ABORT_EC, ABORT_PE, _CHUNK, _Streams, _measure_rounds, _round_distributions
from dicka.quantum import outcome_bits


def _key_bits(key):
    """A raw key as a uint8 array of 0/1: raw keys are kept packed eight bits to a byte."""
    assert isinstance(key, PackedBits) and key.data.size == (key.n_bits + 7) // 8
    return np.unpackbits(key.data, count=key.n_bits, bitorder="little")


def read_summary(text: str) -> dict:
    """Parse the last SUMMARY line out of a serialized transcript.

    Found by one reverse search, so the round lines are neither split nor
    copied.
    """
    start = text.rfind("\nSUMMARY ") + 1
    if start == 0 and not text.startswith("SUMMARY "):
        raise ValueError("transcript has no SUMMARY line")
    end = text.find("\n", start)
    return json.loads(text[start + len("SUMMARY "):end if end >= 0 else len(text)])


def _budget():
    return EpsilonBudget(smooth=1e-8, pa=1e-8, ea=1e-8, ec=2e-8, ec_prime=1e-8, ec_tilde=1e-8)


def _config(**overrides):
    values = dict(
        n_parties=3,
        n_rounds=10**4,
        mu=0.05,
        delta=0.80,
        qber=0.0,
        eps=_budget(),
        rng_seed=42,
    )
    values.update(overrides)
    return ProtocolConfig(**values)


def test_honest_noiseless_run():
    config = _config()
    tr = run_protocol(config)
    assert tr.abort is None
    assert tr.keys is not None
    assert tr.keys_identical
    # the computed finite-size length at these parameters is zero
    assert len(tr.keys[0]) == finite_key_length(config).key_length
    assert not tr.pe_vacuous


def test_honest_run_with_key_override():
    tr = run_protocol(_config(key_len=96, qber=0.02, delta=0.78, rng_seed=9))
    assert tr.abort is None
    assert all(len(k) == 96 for k in tr.keys)
    assert tr.keys_identical
    assert np.array_equal(_key_bits(tr.raw_keys[0]), tr.outcomes[:, 0])
    assert tr.raw_keys[0].n_bits == 10**4


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_parties=2),
        dict(n_rounds=-1),
        dict(mu=0.0),
        dict(delta=0.75),
        dict(qber=0.5),
        dict(rng_seed=2**64),
        dict(key_len=-1),
        dict(variant="x"),
    ],
    ids=lambda overrides: next(iter(overrides)),
)
def test_config_validation(overrides):
    with pytest.raises(DomainError):
        _config(**overrides)


@pytest.mark.parametrize("delta", [0.78, 0.85])
def test_key_len_above_round_count_rejected_at_construction(delta):
    # at this seed the run would fail in amplify for delta 0.78 but abort
    # quietly in parameter estimation for 0.85; both configs are invalid
    with pytest.raises(DomainError):
        _config(n_rounds=100, mu=0.5, qber=0.02, delta=delta, rng_seed=1, key_len=200)


@pytest.mark.parametrize(("field", "value"), [("key_len", 3.5), ("rng_seed", 1.5), ("key_len", 3.0)])
def test_non_integer_seed_or_key_len_rejected_at_construction(field, value):
    with pytest.raises(DomainError):
        _config(**{field: value})


def test_numpy_integer_seed_and_key_len_accepted():
    want = run_protocol(_config(n_rounds=2000, rng_seed=7, key_len=64)).serialize()
    config = _config(n_rounds=np.int64(2000), rng_seed=np.int64(7), key_len=np.int64(64))
    assert run_protocol(config).serialize() == want


def test_party_count_above_qubit_cap_rejected_at_construction():
    # only constructed, never run: a run would draw its n-length round
    # inputs before the outcome tables refuse the size
    with pytest.raises(SizeOutOfRangeError):
        _config(n_parties=MAX_QUBITS + 1, n_rounds=10**9)
    assert _config(n_parties=MAX_QUBITS, n_rounds=10**9).n_parties == MAX_QUBITS


def test_threshold_above_honest_expectation_aborts():
    # delta = 0.851 exceeds the honest expectation at Q = 0.05 (about 0.810)
    aborts = 0
    for seed in range(2000, 2100):
        tr = run_protocol(_config(delta=0.851, qber=0.05, rng_seed=seed))
        if tr.abort is not None:
            assert tr.abort == ABORT_PE
            aborts += 1
    assert aborts >= 99


def test_zero_rounds_completes_with_empty_keys():
    tr = run_protocol(_config(n_rounds=0))
    assert tr.abort is None
    assert tr.keys is not None
    assert all(len(k) == 0 for k in tr.keys)
    assert tr.pe_vacuous


def test_reconcile_honest_keys_match_alice():
    config = _config(qber=0.05, n_rounds=2000, rng_seed=5)
    streams = _Streams.from_seed(config.rng_seed)
    tr = _measure_rounds(config, streams)
    reconcile(config, tr, streams.ec)
    assert tr.abort is None
    alice = _key_bits(tr.raw_keys[0])
    for bob in tr.raw_keys[1:]:
        assert np.array_equal(alice, _key_bits(bob))
    assert len(tr.disclosures) == config.n_parties - 1
    assert all(len(d) == tr.n_test_rounds for d in tr.disclosures)


@pytest.mark.parametrize("n_rounds", [0, 50])
def test_reconcile_checks_bob_key_count(n_rounds):
    config = _config(n_rounds=n_rounds)
    for count in (1, 3):
        streams = _Streams.from_seed(config.rng_seed)
        tr = _measure_rounds(config, streams)
        with pytest.raises(LengthMismatchError):
            reconcile(config, tr, streams.ec, bob_keys=[tr.outcomes[:, 0].copy()] * count)


def test_reconcile_detects_corrupted_key():
    config = _config(n_rounds=500, rng_seed=11)
    detected = 0
    trials = 200
    for seed in range(trials):
        streams = _Streams.from_seed(seed)
        tr = _measure_rounds(config, streams)
        alice = tr.outcomes[:, 0]
        corrupted = alice.copy()
        corrupted[37] ^= 1
        reconcile(config, tr, streams.ec, bob_keys=[corrupted, alice.copy()])
        if tr.abort == ABORT_EC:
            detected += 1
    # 27-bit verification tag: missing a single flip has probability 2^-27
    assert detected == trials


def test_full_testing_discloses_everything():
    config = _config(mu=1.0, n_rounds=300, key_len=0, rng_seed=3)
    tr = run_protocol(config)
    assert tr.n_test_rounds == 300
    assert all(len(d) == 300 for d in tr.disclosures)
    assert (tr.t == 1).all()


def _synthetic_testing_transcript(wins, losses):
    """All-test-round transcript with x = y1 = 0 so a win means a == b1."""
    n = wins + losses
    outcome_index = np.zeros(n, dtype=np.uint8)
    outcome_index[wins:] = 0b010  # b1 disagrees with a on the losing rounds
    tr = Transcript(
        n_parties=3,
        n_rounds=n,
        rng_seed=0,
        round_class=np.ones(n, dtype=np.uint8),  # the question x = 0, y1 = 0
        outcome_index=outcome_index,
    )
    outcomes = tr.outcomes
    assert (tr.t == 1).all() and (tr.x == 0).all() and (tr.y1 == 0).all()
    tr.raw_keys = [outcomes[:, 0].copy()] * 3
    tr.disclosures = [outcomes[:, 1].copy(), outcomes[:, 2].copy()]
    return tr


def test_parameter_estimation_threshold_arithmetic():
    config = _config(delta=0.80)
    tr = estimate_parameters(config, _synthetic_testing_transcript(79, 21))
    assert tr.abort == ABORT_PE
    assert tr.n_wins == 79
    tr = estimate_parameters(config, _synthetic_testing_transcript(80, 20))
    assert tr.abort is None
    tr = estimate_parameters(config, _synthetic_testing_transcript(100, 0))
    assert tr.abort is None


def test_parameter_estimation_vacuous_without_tests():
    config = _config(n_rounds=50, mu=1e-12, rng_seed=1)
    tr = run_protocol(config)
    assert tr.n_test_rounds == 0
    assert tr.pe_vacuous
    assert tr.abort is None


def test_parameter_estimation_requires_reconciliation():
    config = _config(n_rounds=10)
    streams = _Streams.from_seed(0)
    tr = _measure_rounds(config, streams)
    with pytest.raises(InvalidInputError):
        estimate_parameters(config, tr)


def test_amplify_zero_length():
    config = _config(n_rounds=100, rng_seed=8)
    streams = _Streams.from_seed(config.rng_seed)
    tr = _measure_rounds(config, streams)
    reconcile(config, tr, streams.ec)
    estimate_parameters(config, tr)
    amplify(tr, 0, streams.pa)
    assert tr.abort is None
    assert all(len(k) == 0 for k in tr.keys)


def test_amplify_identical_raw_keys_agree():
    tr = run_protocol(_config(n_rounds=400, qber=0.05, delta=0.78, key_len=48, rng_seed=12))
    assert tr.abort is None
    assert tr.keys_identical


def test_amplify_differing_raw_keys_disagree():
    # one flipped raw bit changes a 32-bit key except with probability 2^-32
    config = _config(n_rounds=200, key_len=32)
    same = 0
    for seed in range(100):
        streams = _Streams.from_seed(seed)
        tr = _measure_rounds(config, streams)
        alice = tr.outcomes[:, 0]
        tampered = alice.copy()
        tampered[0] ^= 1
        tr.raw_keys = [alice, tampered]
        tr.disclosures = []
        amplify(tr, 32, streams.pa)
        if np.array_equal(tr.keys[0], tr.keys[1]):
            same += 1
    assert same == 0


def test_amplify_rejects_bad_lengths_and_aborted_runs():
    config = _config(n_rounds=100)
    streams = _Streams.from_seed(2)
    tr = _measure_rounds(config, streams)
    reconcile(config, tr, streams.ec)
    with pytest.raises(LengthMismatchError):
        amplify(tr, 101, streams.pa)
    tr.abort = ABORT_PE
    with pytest.raises(InvalidInputError):
        amplify(tr, 0, streams.pa)


def test_test_fraction_concentration():
    config = _config(n_rounds=10**4, mu=0.05, rng_seed=77)
    tr = run_protocol(config)
    sigma = math.sqrt(0.05 * 0.95 / config.n_rounds)
    assert abs(tr.n_test_rounds / config.n_rounds - 0.05) < 5 * sigma


def test_win_rate_tracks_quantum_value():
    config = _config(n_rounds=4 * 10**4, mu=0.25, qber=0.02, delta=0.78, key_len=0, rng_seed=101)
    tr = run_protocol(config)
    p = pexp_formula(3, 0.02)
    sigma = math.sqrt(p * (1 - p) / tr.n_test_rounds)
    assert abs(tr.win_rate - p) < 5 * sigma


def test_round_distributions_are_the_game_tables():
    # sampling draws from exactly the distributions the game scores; the
    # closed-form state's agreement with the dense layer is tested in test_quantum
    for n in range(3, 7):
        for qber in (0.0, 0.013):
            state = depolarize_each(GHZState(n), qber_to_pdep(qber))
            dists = [joint_distribution(state, honest_settings(n)[0])]
            dists += [dist for dist, _, _ in _questions(state)]
            tables = _round_distributions(n, qber)
            assert list(tables) == [0, 1, 2, 3, 4]
            for cid, dist in enumerate(dists):
                assert np.array_equal(tables[cid], np.cumsum(dist))


def test_round_distributions_pass_the_quantum_seams(monkeypatch):
    # perfbench's traced mode times the outcome tables by wrapping exactly
    # these two module attributes; the tables must keep going through them
    import dicka.protocol as protocol

    calls = {"depolarize_each": [], "joint_distribution": []}

    def counting(name):
        original = getattr(protocol, name)

        def wrapper(state, *args):
            calls[name].append(state)
            return original(state, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(protocol, name, counting(name))
    _round_distributions.cache_clear()
    try:
        _round_distributions(9, 0.01)
    finally:
        _round_distributions.cache_clear()
    assert len(calls["depolarize_each"]) == 1
    assert len(calls["joint_distribution"]) == 5
    assert isinstance(calls["depolarize_each"][0], GHZState)
    assert all(isinstance(state, GHZState) for state in calls["joint_distribution"])


def test_protocol_stages_pass_their_seams(monkeypatch):
    # perfbench's traced mode times each stage and counts the hashes by
    # wrapping exactly these module attributes; run_protocol must call them
    import dicka.hashing as hashing
    import dicka.protocol as protocol

    seams = [(protocol, name) for name in
             ("reconcile", "estimate_parameters", "amplify", "toeplitz_hash", "finite_key_length")]
    seams.append((hashing, "toeplitz_hash"))
    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)
        key = f"{owner.__name__.rsplit('.', 1)[1]}.{name}"
        calls[key] = []

        def wrapper(*args, **kwargs):
            calls[key].append(args)
            return original(*args, **kwargs)

        return wrapper

    for owner, name in seams:
        monkeypatch.setattr(owner, name, counting(owner, name))

    # the batch workload: N = 3, n = 10^4, key_len = 128
    config = _config(qber=0.02, delta=0.78, key_len=128, rng_seed=5)
    tr = run_protocol(config)
    assert tr.abort is None and len(tr.keys[0]) == 128
    counts = {key: len(args) for key, args in calls.items()}
    assert counts == {
        "protocol.reconcile": 1,
        "protocol.estimate_parameters": 1,
        "protocol.amplify": 1,
        "protocol.toeplitz_hash": 4,  # the tag and the three keys
        "protocol.finite_key_length": 0,
        "hashing.toeplitz_hash": 2,  # the two Bobs' verifications, through verify_hash
    }

    for args in calls.values():
        args.clear()
    config = dataclasses.replace(config, key_len=None)
    tr = run_protocol(config)
    assert tr.abort is None
    assert len(calls["protocol.finite_key_length"]) == 1
    assert calls["protocol.finite_key_length"][0][0] is config


def test_protocol_config_is_rate_params():
    # the config is priced as itself: the same key length, term by term,
    # as a RateParams built from the same fields
    rate_fields = [f.name for f in dataclasses.fields(RateParams)]
    assert [f.name for f in dataclasses.fields(ProtocolConfig)] == rate_fields + ["rng_seed", "key_len"]
    lengths = {}
    for variant in ("main", "appendix"):
        config = _config(n_rounds=10**8, mu=0.065, delta=0.8397, qber=0.01, variant=variant)
        assert isinstance(config, RateParams)
        params = RateParams(**{name: getattr(config, name) for name in rate_fields})
        got, want = finite_key_length(config), finite_key_length(params)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        lengths[variant] = got.key_length
    assert lengths["main"] == 0 and lengths["appendix"] > 0


@pytest.mark.parametrize("n_parties", [3, 4, 5, 6, 9, MAX_QUBITS])
def test_parameter_estimation_scores_against_the_outcomes(n_parties):
    # c computed straight from the outcome table: Alice, Bob_1, and the
    # parity of the other Bobs (four disclosures in all at N = 6); from
    # N = 9 on the outcome indices are kept as uint16
    config = _config(n_parties=n_parties, n_rounds=3000, mu=0.5, qber=0.05, delta=0.78,
                     rng_seed=n_parties)
    streams = _Streams.from_seed(config.rng_seed)
    tr = reconcile(config, _measure_rounds(config, streams), streams.ec)
    estimate_parameters(config, tr)
    assert len(tr.disclosures) == n_parties - 1
    test = tr.t == 1
    assert np.array_equal(_key_bits(tr.raw_keys[0]), tr.outcomes[:, 0])
    for k, disclosed in enumerate(tr.disclosures, start=1):
        assert disclosed.dtype == np.uint8 and np.array_equal(disclosed, tr.outcomes[test, k])
    a, b1 = tr.outcomes[:, 0], tr.outcomes[:, 1]
    parity = tr.outcomes[:, 2:].sum(axis=1) % 2
    wins = (a ^ b1) == tr.x * ((tr.y1 + parity) % 2)
    assert np.array_equal(tr.c[test], wins[test].astype(np.int8))
    assert (tr.c[~test] == -1).all()
    assert set(tr.c[test].tolist()) == {0, 1}


def test_transcript_determinism():
    config = _config(qber=0.02, delta=0.78, key_len=64, rng_seed=31337)
    tr_a, tr_b = run_protocol(config), run_protocol(config)
    assert tr_a.serialize() == tr_b.serialize()
    # transcripts compare by identity and their seeds by value, without raising
    assert tr_a == tr_a and tr_a != tr_b
    assert tr_a.ec_seed == tr_b.ec_seed and tr_a.pa_seed == tr_b.pa_seed
    assert tr_a.ec_seed != tr_a.pa_seed


_C_CHAR = {1: "1", 0: "0", -1: "-"}


def test_transcript_serialization_shape():
    config = _config(n_rounds=25, key_len=8, rng_seed=0)
    tr = run_protocol(config)
    text = tr.serialize()
    lines = text.splitlines()
    assert len([l for l in lines if l.startswith("EC_SEED")]) == 1
    assert len([l for l in lines if l.startswith("EC_DISCLOSE")]) == 2
    assert lines[-1].startswith("SUMMARY ")
    summary = read_summary(text)
    assert summary["abort"] is None
    assert summary["key_length"] == 8
    assert summary["keys_identical"] is True
    rounds = [line.split() for line in lines[:25]]
    assert all(len(fields) == 7 for fields in rounds)  # i t x y1 a bobs c
    assert [fields[6] for fields in rounds] == [_C_CHAR[int(c)] for c in tr.c]


def test_read_summary_takes_the_last_summary_line():
    assert read_summary('SUMMARY {"a": 1}\n') == {"a": 1}
    assert read_summary('SUMMARY {"a": 1}') == {"a": 1}
    text = '0 1 0 1 1 01 1\nSUMMARY {"a": 1}\nXSUMMARY {"a": 3}\nSUMMARY {"a": 2}\nEND\n'
    assert read_summary(text) == {"a": 2}
    for text in ("", "0 0 0 2 1 11 -\n", 'XSUMMARY {"a": 1}\n', 'SUMMARY{"a": 1}\n'):
        with pytest.raises(ValueError):
            read_summary(text)


def _oracle_serialize_rounds(tr):
    """Round lines built one f-string per round: the reference for the byte builder."""
    lines = []
    # the fields are decoded from the compact store on each access: once here
    t, x, y1, outcomes, c = tr.t, tr.x, tr.y1, tr.outcomes, tr.c
    for i in range(tr.n_rounds):
        bobs = "".join(str(int(b)) for b in outcomes[i, 1:])
        lines.append(
            f"{i} {int(t[i])} {int(x[i])} {int(y1[i])} "
            f"{int(outcomes[i, 0])} {bobs} {_C_CHAR[int(c[i])]}"
        )
    return "".join(line + "\n" for line in lines)


def _serialization_case(kind, n_parties, n_rounds):
    # mu = 0.5 and Q = 0.05 give wins, losses and key rounds from about 100 rounds on
    config = _config(
        n_parties=n_parties, n_rounds=n_rounds, mu=0.5, qber=0.05, delta=0.78,
        key_len=min(n_rounds, 16), rng_seed=1000 * n_parties + n_rounds,
    )
    if kind == "success":
        return run_protocol(config)
    if kind == "pe_abort":
        return run_protocol(dataclasses.replace(config, qber=0.2, delta=0.85))
    streams = _Streams.from_seed(config.rng_seed)
    tr = _measure_rounds(config, streams)
    if kind == "measure_only":
        return tr
    bob_keys = [tr.outcomes[:, 0].copy() for _ in range(n_parties - 1)]
    if n_rounds:
        bob_keys[-1][n_rounds // 2] ^= 1
    return reconcile(config, tr, streams.ec, bob_keys=bob_keys)


@pytest.mark.parametrize("kind", ["success", "pe_abort", "ec_abort", "measure_only"])
@pytest.mark.parametrize("n_parties", range(3, 9))
def test_round_lines_match_oracle(kind, n_parties):
    # every decimal-width boundary of the round index up to five digits
    for n_rounds in (0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 10001):
        tr = _serialization_case(kind, n_parties, n_rounds)
        expected = _oracle_serialize_rounds(tr)
        text = tr.serialize()
        assert text[:len(expected)] == expected
        assert text[len(expected):].startswith(("EC_SEED ", "SUMMARY "))
        if kind == "measure_only":
            assert (tr.c == -1).all()
        elif kind == "success" and n_rounds >= 1000:
            assert set(tr.c.tolist()) == {-1, 0, 1}
        elif kind != "success" and n_rounds >= 1000:
            assert tr.abort == {"pe_abort": ABORT_PE, "ec_abort": ABORT_EC}[kind]


def _oracle_measure_rounds(config, streams):
    """Every round sampled in one draw per stream: the reference for the chunked sampler."""
    n, n_par = config.n_rounds, config.n_parties
    t = (streams.tests.random(n) < config.mu).astype(np.uint8)
    xs = streams.inputs.integers(0, 2, size=n).astype(np.uint8)
    ys = streams.inputs.integers(0, 2, size=n).astype(np.uint8)
    x = np.where(t == 1, xs, 0).astype(np.uint8)
    y1 = np.where(t == 1, ys, 2).astype(np.uint8)
    tables = _round_distributions(n_par, config.qber)
    cls = np.where(t == 1, 1 + 2 * x.astype(np.int64) + y1.astype(np.int64), 0)
    u = streams.outcomes.random(n)
    idx = np.zeros(n, dtype=np.int64)
    for cid, cum in tables.items():
        mask = cls == cid
        idx[mask] = np.minimum(np.searchsorted(cum, u[mask], side="right"), len(cum) - 1)
    return t, x, y1, outcome_bits(idx, n_par)


@pytest.mark.parametrize("n_parties", [3, 4, 5, 6, 9])
def test_chunked_rounds_match_one_shot_oracle(n_parties):
    for n_rounds in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17):
        config = _config(
            n_parties=n_parties, n_rounds=n_rounds, mu=0.5, qber=0.05, delta=0.78,
            key_len=64, rng_seed=n_parties * n_rounds,
        )
        streams = _Streams.from_seed(config.rng_seed)
        tr = _measure_rounds(config, streams)
        expected = _oracle_measure_rounds(config, _Streams.from_seed(config.rng_seed))
        for got, want in zip((tr.t, tr.x, tr.y1, tr.outcomes), expected):
            assert got.dtype == np.uint8 and np.array_equal(got, want)
        tr = run_protocol(config)
        out = io.BytesIO()
        assert tr.serialize(out) is None
        assert out.getvalue() == tr.serialize().encode("ascii")


def test_numpy_draws_are_chunk_stable():
    # the chunked sampler relies on this: the same values in chunks as in one call
    n = 3 * 1001 + 17
    splits = [0, 1, 2, 999, 1000, 2047, 2048, 3000, n]

    def chunked(draw, seed, blocks):
        rng = np.random.Generator(np.random.PCG64(seed))
        return [np.concatenate([draw(rng, b - a) for a, b in zip(splits, splits[1:])]) for _ in range(blocks)]

    def one_shot(draw, seed, blocks):
        rng = np.random.Generator(np.random.PCG64(seed))
        return [draw(rng, n) for _ in range(blocks)]

    draws = {
        "random": lambda rng, size: rng.random(size),
        "integers": lambda rng, size: rng.integers(0, 2, size=size),
    }
    for name, draw in draws.items():
        for seed in (0, 7, 2**63 + 5):
            # two n-blocks from one stream, as x and y1 are drawn
            got, want = chunked(draw, seed, 2), one_shot(draw, seed, 2)
            assert got[0].dtype == want[0].dtype
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), name

    # random_seed relies on this: uint8 draws come four to a 32-bit word, so
    # they split cleanly where every chunk but the last is a multiple of 4
    # long, and not elsewhere
    def uint8_bits(seed, sizes):
        rng = np.random.Generator(np.random.PCG64(seed))
        return np.concatenate([rng.integers(0, 2, size=size, dtype=np.uint8) for size in sizes])

    for seed in (0, 7, 2**63 + 5):
        want = uint8_bits(seed, [n])
        for sizes in ([4] * 5 + [n - 20], [8, n - 8], [1000, 1024, n - 2024], [2**11 + 4, n - 2**11 - 4]):
            assert np.array_equal(uint8_bits(seed, sizes), want), sizes
        assert not np.array_equal(uint8_bits(seed, [3, n - 3]), want)


def test_run_and_serialize_hold_bounded_memory(tmp_path):
    # the run keeps about 2.5 bytes per round at N = 3; the sampling,
    # hashing and serialization temporaries must not grow with n
    config = _config(n_rounds=10**6, mu=0.05, qber=0.02, delta=0.78, key_len=128, rng_seed=3)
    _round_distributions(config.n_parties, config.qber)  # cached tables are not per-round memory
    tracemalloc.start()
    try:
        tr = run_protocol(config)
        with open(tmp_path / "run.txt", "wb") as fh:
            tr.serialize(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.abort is None and tr.keys_identical
    assert peak < 20 * 2**20


def test_run_keeps_about_two_and_a_half_bytes_per_round():
    # kept: the round class and outcome index (one byte each at N = 3),
    # Alice's packed key and the packed EC and PA seeds (1/8 byte each), and
    # the disclosures and wins of the tested 5 %; the peak adds only the
    # fixed working memory of the chunked stages, about 0.3 MB
    config = _config(n_rounds=10**6, mu=0.05, qber=0.02, delta=0.78, key_len=128, rng_seed=3)
    run_protocol(dataclasses.replace(config, n_rounds=1000))  # tables and lazy imports are not per round
    tracemalloc.start()
    try:
        tr = run_protocol(config)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.abort is None and tr.keys_identical
    assert kept <= 2.7 * config.n_rounds
    assert peak <= kept + 0.5 * 2**20


def test_serializing_to_a_file_holds_half_a_megabyte():
    # the round lines are built 2^12 rounds at a time and the hex lines are
    # written a slice at a time; whole EC and PA seed hex strings took 1.5
    # bytes per round, and 2^14-round line chunks 1.3 MB
    config = _config(n_rounds=2 * 10**5, mu=0.05, qber=0.02, delta=0.78, key_len=128, rng_seed=3)
    tr = run_protocol(config)
    with open(os.devnull, "wb") as sink:
        run_protocol(dataclasses.replace(config, n_rounds=1000)).serialize(sink)  # lazy set-up
        tracemalloc.start()
        try:
            tr.serialize(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert tr.abort is None and tr.pa_seed is not None
    assert peak <= 0.5 * 2**20


def test_sampling_holds_under_half_a_megabyte_above_what_it_keeps():
    # per 2^14-round chunk: the float64 draws of the test flags and the
    # outcome uniforms, and the masks and searchsorted results of each class;
    # the classes are built in place in uint8, where int64 copies of them
    # took the peak to 0.6 MB
    for n_parties in (3, 9):
        config = _config(n_parties=n_parties, n_rounds=2 * 10**5, mu=0.05, qber=0.02, delta=0.78, rng_seed=3)
        _measure_rounds(dataclasses.replace(config, n_rounds=1000), _Streams.from_seed(3))  # tables, lazy set-up
        streams = _Streams.from_seed(config.rng_seed)
        tracemalloc.start()
        try:
            tr = _measure_rounds(config, streams)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tr.n_rounds == config.n_rounds
        assert peak - kept <= 0.45 * 2**20, n_parties


def test_every_stage_peaks_near_what_the_run_keeps():
    # each stage walks the rounds in bounded chunks, so its peak stays within
    # a fixed amount (2 MB) and a fraction of a byte per round of what the
    # run keeps after it
    config = _config(n_rounds=4 * 10**6, mu=0.05, qber=0.02, delta=0.78, key_len=128, rng_seed=3)
    run_protocol(dataclasses.replace(config, n_rounds=1000))  # tables and lazy imports are not per round
    streams = _Streams.from_seed(config.rng_seed)
    stages = {
        "measure": lambda tr: _measure_rounds(config, streams),
        "reconcile": lambda tr: reconcile(config, tr, streams.ec),
        "estimate": lambda tr: estimate_parameters(config, tr),
        "amplify": lambda tr: amplify(tr, config.key_len, streams.pa),
    }
    over = {}
    tracemalloc.start()
    try:
        tr = None
        for name, stage in stages.items():
            tracemalloc.reset_peak()
            tr = stage(tr)
            kept, peak = tracemalloc.get_traced_memory()
            over[name] = peak - kept
        with open(os.devnull, "wb") as sink:
            tracemalloc.reset_peak()
            tr.serialize(sink)
            kept, peak = tracemalloc.get_traced_memory()
            over["serialize"] = peak - kept
    finally:
        tracemalloc.stop()
    assert tr.abort is None and tr.keys_identical
    limit = 0.5 * config.n_rounds + 2 * 2**20
    assert all(extra <= limit for extra in over.values()), over


def test_oracle_bob_keys_share_alices_string_read_only():
    config = _config(n_parties=5, n_rounds=300, rng_seed=4)
    streams = _Streams.from_seed(config.rng_seed)
    tr = reconcile(config, _measure_rounds(config, streams), streams.ec)
    alice, bobs = tr.raw_keys[0], tr.raw_keys[1:]
    assert len(bobs) == 4 and tr.abort is None
    assert np.array_equal(_key_bits(alice), tr.outcomes[:, 0])
    for bob in bobs:
        assert bob is alice and not bob.data.flags.writeable
        with pytest.raises(ValueError):
            bob.data[0] ^= 1


def test_round_records_consistent():
    tr = run_protocol(_config(n_rounds=200, rng_seed=15))
    key, test = tr.t == 0, tr.t == 1
    assert key.any() and test.any()
    assert (tr.x[key] == 0).all() and (tr.y1[key] == 2).all() and (tr.c[key] == -1).all()
    assert np.isin(tr.y1[test], (0, 1)).all()
    assert np.isin(tr.c[test], (0, 1)).all()


def test_correctness_over_many_runs():
    # non-aborted runs must never disagree: reconciliation is exact and
    # verified, so the mismatch budget (N-1) eps'_EC is never consumed
    mismatches = 0
    completed = 0
    for qber in (0.0, 0.02, 0.05):
        for seed in range(334):
            tr = run_protocol(
                _config(n_rounds=2000, qber=qber, delta=0.78, key_len=64, rng_seed=9000 + seed)
            )
            if tr.abort is None:
                completed += 1
                if not tr.keys_identical:
                    mismatches += 1
    assert completed > 900
    assert mismatches == 0


def test_completeness_bound_respected_empirically():
    config_kwargs = dict(n_rounds=10**4, qber=0.02, delta=0.78, mu=0.05, key_len=0)
    runs = 100
    aborts = sum(
        1
        for seed in range(4000, 4000 + runs)
        if run_protocol(_config(rng_seed=seed, **config_kwargs)).abort is not None
    )
    bound = completeness_bound(
        _config(rng_seed=0, **config_kwargs), pexp_formula(3, 0.02)
    )
    sigma = math.sqrt(bound * (1 - bound) / runs)
    assert aborts / runs <= bound + 3 * sigma
