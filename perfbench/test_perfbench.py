"""Tests of the benchmark itself: tiny runs of every workload and the checker's teeth.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import check
import run
import tracing
from workloads import EPS, Batch, KeyrateSweep, Simulate

run.load_program()

TINY = {
    "simulate-long": lambda: Simulate(n_parties=3, n_rounds=3000, mu=0.5, qber=0.02, key_len=64),
    "simulate-wide": lambda: Simulate(n_parties=6, n_rounds=2000, mu=0.5, qber=0.01, key_len=None),
    "batch": lambda: Batch(n_rounds=2000, mu=0.25),
    "keyrate-sweep": lambda: KeyrateSweep(q_per_n=1),
}

# per-layer figures each tiny traced run must show as non-zero
LAYERS_SEEN = {
    "simulate-long": ["protocol.serialize_ms", "hashing.amplify_ms", "quantum.calls", "hashing.peak_mb"],
    "simulate-wide": ["protocol.serialize_ms", "quantum.busy_ms", "keyrate.finite_key_ms", "quantum.peak_mb"],
    "batch": ["protocol.pe_ms", "hashing.reconcile_ms", "hashing.matrix_mbit"],
    "keyrate-sweep": ["keyrate.finite_key_ms", "keyrate.objective_evals", "keyrate.asymptotic_us"],
}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_checks(name, traced, tmp_path):
    wl = TINY[name]()
    wl.setup(7, tmp_path, run.child_env())
    op_ms, failed, problems, values, _ = run.measure(wl, 0.2, traced)
    assert problems == []
    assert failed == 0 and len(op_ms) % wl.round_size == 0 and op_ms
    if not traced:
        assert values["op_p50_ms"] > 0 and values["peak_rss_mb"] > 0
        return
    assert all(values[layer] > 0 for layer in LAYERS_SEEN[name]), values
    total = sum(values[layer] for layer in tracing.SELF_TIMES) + values["trace.unattributed_ms"]
    assert math.isclose(total, values["trace.op_p50_ms"])
    if name == "batch":  # one EC tag, two Bob verifications, three keys
        assert values["hashing.hash_calls"] == 6


def test_toeplitz_product_matches_its_definition():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, n + 1))
        d = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        x = rng.integers(0, 2, n, dtype=np.uint8)
        dense = np.array([[d[j - i + n - 1] for i in range(n)] for j in range(m)], dtype=np.int64).reshape(m, n)
        assert np.array_equal(check.toeplitz_gf2(d, n, m, x), (dense @ x) % 2)


def test_hex_round_trip():
    bits = np.array([1, 0, 0, 0, 0, 0, 0, 0, 1, 1], dtype=np.uint8)
    assert check.bits_hex(bits) == "0103"
    assert np.array_equal(check.hex_bits("0103", 10), bits)


@pytest.fixture(scope="module")
def transcript():
    from dicka import EpsilonBudget, ProtocolConfig, run_protocol

    spec = dict(n_parties=4, n_rounds=2000, mu=0.5, delta=0.78, qber=0.02, seed=5,
                **{f"eps_{k}": v for k, v in EPS.items()})
    config = ProtocolConfig(n_parties=4, n_rounds=2000, mu=0.5, delta=0.78, qber=0.02,
                            eps=EpsilonBudget(**EPS), rng_seed=5, key_len=64)
    text = run_protocol(config).serialize()
    assert check.check_transcript(text, spec, 64) == []
    return text, spec


def _edit_summary(text, edit):
    lines = text.split("\n")
    summary = json.loads(lines[-2][len("SUMMARY "):])
    edit(summary)
    lines[-2] = "SUMMARY " + json.dumps(summary, sort_keys=True)
    return "\n".join(lines)


def test_checker_rejects_a_flipped_round_bit(transcript):
    text, spec = transcript
    lines = text.split("\n")
    fields = lines[0].split(" ")
    fields[4] = str(1 - int(fields[4]))  # Alice's output
    lines[0] = " ".join(fields)
    assert check.check_transcript("\n".join(lines), spec, 64)


def test_checker_rejects_a_wrong_key_hex(transcript):
    text, spec = transcript

    def edit(summary):
        key = summary["keys"][2]
        summary["keys"][2] = ("1" if key[0] != "1" else "2") + key[1:]

    assert check.check_transcript(_edit_summary(text, edit), spec, 64)


def test_checker_rejects_an_edited_n_wins(transcript):
    text, spec = transcript

    def edit(summary):
        summary["n_wins"] += 1

    assert check.check_transcript(_edit_summary(text, edit), spec, 64)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
