"""The four closed-loop workloads.

A workload turns the benchmark's seed into inputs (``setup``), runs one
operation at a time (``prepare`` untimed, ``run`` timed, ``record``
untimed) and finally checks every output it kept (``check``).  Operations
within a workload all have the same size, so the per-run figure is a
median over many equal operations.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import check

EPS = {"smooth": 1e-8, "pa": 1e-8, "ea": 1e-8, "ec": 2e-8, "ec_prime": 1e-8, "ec_tilde": 1e-8}


def op_seed(workload_seed: int, index: int) -> int:
    """64-bit protocol seed of operation ``index``; index 0 is the warm-up."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1, np.uint64)[0])


def self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _eps_budget():
    from dicka import EpsilonBudget

    return EpsilonBudget(**EPS)


class Simulate:
    """One ``dicka simulate`` child process per operation, timed from spawn to exit."""

    round_size = 1

    def __init__(self, n_parties, n_rounds, mu, qber, key_len):
        self.spec = dict(
            n_parties=n_parties, n_rounds=n_rounds, mu=mu, delta=0.78, qber=qber,
            **{f"eps_{k}": v for k, v in EPS.items()},
        )
        self.key_len = key_len

    def setup(self, seed: int, work_dir: Path, env: dict) -> None:
        import dicka.cli  # noqa: F401  (the traced run calls it in-process)

        self.seed, self.work_dir, self.env = seed, work_dir, env
        lines = [f"{k} = {v!r}" for k, v in self.spec.items()] + [f"seed = {op_seed(seed, 0)}"]
        if self.key_len is not None:
            lines.append(f"key_len = {self.key_len}")
        self.config = work_dir / "simulate.cfg"
        self.config.write_text("\n".join(lines) + "\n")
        self.kept: list[tuple[Path, int]] = []
        self.max_rss_mb = 0.0

    def prepare(self, index: int, stem: str = "op"):
        out = self.work_dir / f"{stem}-{index}.txt"
        argv = ["simulate", "--config", str(self.config), "--seed", str(op_seed(self.seed, index)), "--out", str(out)]
        return index, out, argv

    def run(self, job, tracer):
        _, out, argv = job
        if tracer is not None:
            return self._run_traced(argv, tracer), None
        with open(out.with_suffix(".err"), "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "dicka", *argv], env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024

    @staticmethod
    def _run_traced(argv, tracer) -> int:
        import dicka.cli
        import dicka.protocol
        import dicka.quantum

        # a child process starts with empty caches; so does each traced op
        for module in (dicka.protocol, dicka.quantum):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.main"):
            return dicka.cli.main(argv)

    def record(self, job, result, timed: bool) -> bool:
        index, out, _ = job
        code, rss_mb = result
        if timed and rss_mb is not None:
            self.max_rss_mb = max(self.max_rss_mb, rss_mb)
        if code != 0:
            return True
        self.kept.append((out, index))
        return False

    def peak_rss_mb(self) -> float:
        return self.max_rss_mb

    def check(self, tracer) -> list[str]:
        """Check every transcript, the pooled statistics and one byte-identical re-run."""
        spec = dict(self.spec)
        key_len = self.key_len if self.key_len is not None else check.expected_key_length(spec)
        tally = check.Tally()
        problems = []
        for path, index in self.kept:
            spec["seed"] = op_seed(self.seed, index)
            found = check.check_transcript(path.read_text(), spec, key_len, tally)
            problems += [f"{path.name}: {p}" for p in found]
        if tally.rounds:
            problems += check.check_tally(tally, spec["n_parties"], spec["mu"], spec["qber"])
        if self.kept:
            first, index = self.kept[0]
            job = self.prepare(index, stem="rerun")
            code, _ = self.run(job, tracer)
            if code != 0 or job[1].read_bytes() != first.read_bytes():
                problems.append("re-running an operation with the same seed changed its transcript")
        return problems


class Batch:
    """One in-process ``run_protocol`` call per operation, the acceptance-batch config."""

    round_size = 1
    n_parties, delta, qber, key_len = 3, 0.78, 0.02, 128
    rehash_every = 16

    def __init__(self, n_rounds=10**4, mu=0.05):
        self.n_rounds, self.mu = n_rounds, mu

    def setup(self, seed: int, work_dir: Path, env: dict) -> None:
        import dicka.protocol  # noqa: F401

        self.seed = seed
        self.eps = _eps_budget()
        self.runs = self.aborts = self.tests = self.wins = 0
        self.problems: list[str] = []

    def prepare(self, index: int):
        from dicka import ProtocolConfig

        return ProtocolConfig(
            n_parties=self.n_parties, n_rounds=self.n_rounds, mu=self.mu, delta=self.delta,
            qber=self.qber, eps=self.eps, rng_seed=op_seed(self.seed, index), key_len=self.key_len,
        )

    def run(self, config, tracer):
        import dicka.protocol

        return dicka.protocol.run_protocol(config)

    def record(self, config, tr, timed: bool) -> bool:
        rounds = check.Rounds(
            t=tr.t.astype(np.int64), x=tr.x.astype(np.int64), y=tr.y1.astype(np.int64),
            outcomes=tr.outcomes.astype(np.int64), c=tr.c.astype(np.int64),
        )
        found = check.recount(rounds)
        tests, wins = int(rounds.t.sum()), int((rounds.c == 1).sum())
        if tr.n_wins != wins or tr.n_test_rounds != tests:
            found.append("the transcript's win or test count differs from its rounds")
        aborted = wins < self.delta * tests - 1e-9
        if (tr.abort is not None) != aborted:
            found.append(f"abort is {tr.abort!r} with {wins} wins of {tests} tests")
        if tr.abort is None:
            keys = [check.bits_hex(k) for k in tr.keys]
            if len(keys) != self.n_parties or len(set(keys)) != 1 or len(tr.keys[0]) != self.key_len:
                found.append("the parties' keys differ or have the wrong length")
            elif self.runs % self.rehash_every == 0:
                pa = tr.pa_seed
                own = check.toeplitz_gf2(pa.diagonal_bits, pa.in_len, pa.out_len, rounds.outcomes[:, 0])
                if (pa.in_len, pa.out_len) != (self.n_rounds, self.key_len) or check.bits_hex(own) != keys[0]:
                    found.append("the key is not the checker's hash of Alice's string")
        self.problems += [f"seed {config.rng_seed}: {p}" for p in found]
        self.runs += 1
        self.aborts += aborted
        self.tests += tests
        self.wins += wins
        return False

    def peak_rss_mb(self) -> float:
        return self_peak_mb()

    def check(self, tracer) -> list[str]:
        """Pooled win rate within 5 sigma of p_exp; aborts within the completeness bound + 3 sigma."""
        problems = list(self.problems)
        problems += check.within("win rate", self.wins / self.tests, check.pexp(self.n_parties, self.qber), self.tests)
        bound = check.completeness(
            self.n_parties, self.n_rounds, self.mu, self.delta, self.qber, EPS["ec"], EPS["ec_prime"]
        )
        limit = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / self.runs)
        if self.aborts / self.runs > limit:
            problems.append(f"abort frequency {self.aborts}/{self.runs} exceeds {limit:.4f}")
        return problems


class KeyrateSweep:
    """One (N, Q) point of a rate study per operation: both asymptotic rates, four finite key lengths."""

    n_values = (10**6, 10**8, 10**10, 10**12)
    parties = range(3, 8)

    def __init__(self, q_per_n=4):
        self.q_per_n = q_per_n
        self.round_size = len(self.parties) * q_per_n

    def setup(self, seed: int, work_dir: Path, env: dict) -> None:
        import dicka.keyrate  # noqa: F401

        rng = np.random.default_rng(seed)
        self.points = [(n_par, float(q)) for n_par in self.parties for q in rng.uniform(0.005, 0.03, self.q_per_n)]
        self.eps = _eps_budget()
        self.results: dict[int, list[dict]] = {}

    def prepare(self, index: int):
        n_par, q = self.points[index % len(self.points)]
        delta = check.pexp(n_par, q) - 0.01
        return index, n_par, q, [(n, n**-0.1, delta) for n in self.n_values]

    def run(self, job, tracer):
        import dicka.keyrate as keyrate

        _, n_par, q, finite = job
        r_cka = keyrate.asymptotic_rate_cka(n_par, q)
        r_diqkd = keyrate.asymptotic_rate_diqkd(n_par, q)
        breakdowns = [
            keyrate.finite_key_length(keyrate.RateParams(n_par, mu, delta, q, n, self.eps)) for n, mu, delta in finite
        ]
        return r_cka, r_diqkd, breakdowns

    def record(self, job, result, timed: bool) -> bool:
        index, n_par, q, finite = job
        r_cka, r_diqkd, breakdowns = result
        fields = ("entropy_term", "second_order", "smoothing_term", "pa_term", "leak_alice", "leak_bobs",
                  "p_opt_chosen", "key_length", "raw_length")
        point = {
            "n_parties": n_par, "qber": q, "r_cka": r_cka, "r_diqkd": r_diqkd, "eps": EPS,
            "finite": [(*f, {k: getattr(bd, k) for k in fields}) for f, bd in zip(finite, breakdowns)],
        }
        self.results.setdefault(index % len(self.points), []).append(point)
        return False

    def peak_rss_mb(self) -> float:
        return self_peak_mb()

    def check(self, tracer) -> list[str]:
        """Check each point once in full, its repeats for equality, and the rate curves per N."""
        import dicka.keyrate as keyrate

        problems = []
        firsts = []
        for repeats in self.results.values():
            problems += check.check_rate_point(repeats[0])
            if any(p != repeats[0] for p in repeats[1:]):
                problems.append(f"N={repeats[0]['n_parties']} Q={repeats[0]['qber']}: a repeat gave another result")
            firsts.append(repeats[0])
        for n_par in self.parties:
            firsts.append({"n_parties": n_par, "qber": 0.0, "r_cka": keyrate.asymptotic_rate_cka(n_par, 0.0),
                           "r_diqkd": keyrate.asymptotic_rate_diqkd(n_par, 0.0)})
        return problems + check.check_rate_curves(firsts)


WORKLOADS = {
    "simulate-long": lambda: Simulate(n_parties=3, n_rounds=200_000, mu=0.05, qber=0.02, key_len=128),
    "simulate-wide": lambda: Simulate(n_parties=9, n_rounds=20_000, mu=0.1, qber=0.01, key_len=None),
    "batch": Batch,
    "keyrate-sweep": KeyrateSweep,
}
