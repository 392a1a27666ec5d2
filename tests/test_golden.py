"""Golden digests: serialized transcripts and CLI outputs must not change byte for byte.

Each case pins the sha256 of ``Transcript.serialize()``, or of the output of
one CLI command, for one fixed configuration.  A change that moves a digest
changes what the program writes and has to say why.
"""

import hashlib

import pytest

from dicka import EpsilonBudget, ProtocolConfig, reconcile, run_protocol
from dicka.cli import main
from dicka.protocol import ABORT_EC, ABORT_PE, _Streams, _measure_rounds

EPS = EpsilonBudget(smooth=1e-8, pa=1e-8, ea=1e-8, ec=2e-8, ec_prime=1e-8, ec_tilde=1e-8)


def _config(**overrides):
    values = dict(n_parties=3, n_rounds=2000, mu=0.1, delta=0.78, qber=0.02, eps=EPS, rng_seed=7)
    values.update(overrides)
    return ProtocolConfig(**values)


def _ec_abort_transcript(config):
    """Run up to reconciliation with Bob_2's corrected key one bit off Alice's."""
    streams = _Streams.from_seed(config.rng_seed)
    transcript = _measure_rounds(config, streams)
    alice = transcript.outcomes[:, 0]
    bob_keys = [alice.copy() for _ in range(config.n_parties - 1)]
    bob_keys[1][17] ^= 1
    return reconcile(config, transcript, streams.ec, bob_keys=bob_keys)


# name -> (config, build, expected abort, expected key length, sha256 of the transcript)
CASES = {
    "n3_key64": (
        _config(key_len=64),
        run_protocol, None, 64,
        "4df8071f6f352a784d68a5d2fe2bc74f4fe4bdbacad6a305762fd77f90d9fca3",
    ),
    "n4_computed_key_len": (
        _config(n_parties=4, n_rounds=3000, qber=0.01, rng_seed=11),
        run_protocol, None, 0,
        "45402a60208949b479e25a29700b408a5e13a732a1208e46f7f83cc72ba35a31",
    ),
    "n6_key128": (
        _config(n_parties=6, n_rounds=1500, mu=0.2, qber=0.01, rng_seed=3, key_len=128),
        run_protocol, None, 128,
        "2c34e9a59616fc05da815f01dd468e7701698ccdb3f1639b858af45f558244e3",
    ),
    "n5_key32": (
        _config(n_parties=5, n_rounds=1000, mu=0.3, qber=0.0, rng_seed=21, key_len=32),
        run_protocol, None, 32,
        "1083faf3993ff85dd0d9648fb2beef735d90caa6d85f858807fbb364c71183e2",
    ),
    "pe_abort": (
        _config(n_rounds=4000, delta=0.851, qber=0.05, rng_seed=2001, key_len=64),
        run_protocol, ABORT_PE, 0,
        "6c03f38304171f3b7e3676b737386c0a86385e419f2d2cdb9695716a561f43cc",
    ),
    "ec_abort": (
        _config(n_parties=4, rng_seed=13, key_len=64),
        _ec_abort_transcript, ABORT_EC, 0,
        "e30dfef2e06ba19844a983f789a186cfbd9fbbe24cd105a8d2f7dc1cc5f6e991",
    ),
    "zero_rounds": (
        _config(n_rounds=0, key_len=0),
        run_protocol, None, 0,
        "fc1c56af76d09d5276d3e42b6f7f246c3a128bcdfa5bc773b589848a048fc863",
    ),
    "n3_key4000": (
        _config(n_rounds=10**4, mu=0.05, rng_seed=5, key_len=4000),
        run_protocol, None, 4000,
        "34eb3bab74a419f3863c0a7c621c531b2936726980e75cbf937f748666807525",
    ),
    # two-byte outcome indices: N = 9 (the simulate-wide shape) and the largest N
    "n9_key64": (
        _config(n_parties=9, n_rounds=3000, mu=0.2, qber=0.01, rng_seed=9, key_len=64),
        run_protocol, None, 64,
        "e48f4a70e9aacdd401e2bc3d59203fa525d209c692c278e68b118e774771c055",
    ),
    "n12_key96": (
        _config(n_parties=12, n_rounds=4000, mu=0.2, qber=0.01, rng_seed=12, key_len=96),
        run_protocol, None, 96,
        "25943d6513b27e22070b6883cac3a6c019848ee4ad4b7d57fbe31dbb6ebaf624",
    ),
    # several sampling, serialization and hashing chunks, the last one partial
    "n3_key128_100007": (
        _config(n_rounds=100007, mu=0.05, rng_seed=17, key_len=128),
        run_protocol, None, 128,
        "c91f73c3aac71a7d16368950410836f37b911d054ddd56c0a4a9d0681a2868ea",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_digest(name):
    config, build, abort, key_length, digest = CASES[name]
    transcript = build(config)
    text = transcript.serialize()
    summary = transcript.summary()  # the digest pins its SUMMARY line
    assert summary["abort"] == abort
    assert summary["key_length"] == key_length
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


# --- CLI outputs: key length, rate sweep and game values ------------------

EPS_LINES = "".join(f"eps_{name} = {value!r}\n" for name, value in vars(EPS).items())
KEYLEN_CONFIG = "n_parties = 3\nn_rounds = 100000000\nmu = 0.02\ndelta = 0.84\nqber = 0.01\n" + EPS_LINES
RATES_CONFIG = "n_list = 2,3,4,5,7,10\nq_min = 0\nq_max = 0.1\nq_step = 0.001\n"

# name -> (command, config text, extra arguments, sha256 of the output)
CLI_CASES = {
    "keylen_main": (
        "keylen", KEYLEN_CONFIG, [],
        "a2ca512b4b9329a5f65a639058089c97b086e854ad636f4afa9da289a3bc02f1",
    ),
    "keylen_appendix": (
        "keylen", KEYLEN_CONFIG, ["--paper-variant", "appendix"],
        "be66cccf55a1dc1a4cde7d01c6349ddfe3f0617446e33c961017eec87a4b7652",
    ),
    "rates": (
        "rates", RATES_CONFIG, [],
        "dc3be14c5fb4e1aefabcbe7a10bf08153395935c399bdd6d4e0f35d710044e8e",
    ),
    "game_n3": (
        "game", "n_parties = 3\nqber = 0.013\n", [],
        "08b0bacec8a3b9a40c0469a80d9bc62f45c15529e44058d58a47b666a684df60",
    ),
    "game_n6": (
        "game", "n_parties = 6\nqber = 0.013\n", [],
        "98228633cc8d7773c6921f69134b3a8fcb037deb71f4345525cba22ffa1e494f",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_digest(name, tmp_path):
    command, text, extra, digest = CLI_CASES[name]
    config = tmp_path / "run.cfg"
    config.write_text(text)
    out = tmp_path / "out.txt"
    assert main([command, "--config", str(config), "--out", str(out), *extra]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
