"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n>: PASS|FAIL`` line (visible with
``pytest -s``).  Criterion 6 asserts that the finite-size rate at n = 1e12
with test fraction n^(-1/10) lands within 0.05 of the asymptotic rate; the
linear testing penalty (N+1) * mu is about 0.25 at that size, so the
criterion cannot hold for this accounting and the test documents the
measured gap.  See the package README.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from dicka import (
    EpsilonBudget,
    GHZState,
    ProtocolConfig,
    RateParams,
    classical_value,
    completeness_bound,
    depolarize_each,
    finite_key_length,
    min_tradeoff_fhat,
    min_tradeoff_slope,
    pexp_formula,
    qber_to_pdep,
    quantum_win_probability,
    run_protocol,
    tangent_f,
    asymptotic_rate_cka,
)
from dicka.cli import main
from dicka.hashing import random_seed, toeplitz_hash
from dicka.keyrate import CLASSICAL_BOUND, TSIRELSON_BOUND

EPS = EpsilonBudget(smooth=1e-8, pa=1e-8, ea=1e-8, ec=2e-8, ec_prime=1e-8, ec_tilde=1e-8)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    return ok


def test_criterion_01_classical_bound():
    start = time.perf_counter()
    values = {n: classical_value(n) for n in range(2, 7)}
    elapsed = time.perf_counter() - start
    ok = all(v == Fraction(3, 4) for v in values.values()) and elapsed < 1.0
    assert _report(1, ok, f"classical value 3/4 for N=2..6 in {elapsed:.3f}s")


def test_criterion_02_quantum_value():
    worst = 0.0
    elapsed_n6 = 0.0
    for n in range(2, 7):
        start = time.perf_counter()
        state = depolarize_each(GHZState(n), 0.0)
        value = quantum_win_probability(state)
        if n == 6:
            elapsed_n6 = time.perf_counter() - start
        worst = max(worst, abs(value - TSIRELSON_BOUND))
    ok = worst < 1e-9 and elapsed_n6 < 10.0
    assert _report(2, ok, f"max |p_win - Tsirelson| = {worst:.2e}, N=6 in {elapsed_n6:.3f}s")


def test_criterion_03_pexp_consistency():
    worst = 0.0
    for n in range(2, 7):
        for qber in (0.0, 0.01, 0.03, 0.05):
            state = depolarize_each(GHZState(n), qber_to_pdep(qber))
            sim = quantum_win_probability(state)
            worst = max(worst, abs(sim - pexp_formula(n, qber)))
    ok = worst < 1e-9
    assert _report(3, ok, f"max |closed form - exact evaluation| = {worst:.2e}")


def test_criterion_04_rate_curve_reproduction(tmp_path):
    cfg = tmp_path / "rates.cfg"
    cfg.write_text("n_list = 3,4,5,6,7\nq_min = 0\nq_max = 0.05\nq_step = 0.001\n")
    out = tmp_path / "rates.csv"
    start = time.perf_counter()
    code = main(["rates", "--config", str(cfg), "--out", str(out)])
    elapsed = time.perf_counter() - start
    per_n = {}
    for line in out.read_text().splitlines()[1:]:
        n, q, r_cka, r_diqkd = line.split(",")
        per_n.setdefault(int(n), []).append((float(q), float(r_cka), float(r_diqkd)))
    zero_ok = True
    monotone_ok = True
    crossover_ok = True
    for n, rows in per_n.items():
        rows.sort()
        zero_ok &= abs(rows[0][1] - 1.0) < 1e-12 and abs(rows[0][2] - 1.0 / (n - 1)) < 1e-12
        monotone_ok &= all(a[1] >= b[1] - 1e-12 and a[2] >= b[2] - 1e-12 for a, b in zip(rows, rows[1:]))
        diffs = [c - d for _, c, d in rows]
        crossover_ok &= diffs[0] > 0 and min(diffs) < 0
    ok = code == 0 and zero_ok and monotone_ok and crossover_ok and elapsed < 5.0
    assert _report(
        4,
        ok,
        f"zero-noise values {zero_ok}, monotone {monotone_ok}, crossover {crossover_ok}, {elapsed:.2f}s",
    )


def test_criterion_05_tangent_suite():
    ok = True
    # boundary values
    ok &= min_tradeoff_fhat(CLASSICAL_BOUND, 0.05) == 0.0
    for mu in (0.05, 0.5, 1.0):
        ok &= abs(min_tradeoff_fhat(TSIRELSON_BOUND, mu) / (1 - mu / 2) - 1.0) < 1e-12
    # support line and tangency
    rng = np.random.default_rng(7)
    for mu in (0.02, 0.1):
        lo, hi = mu * CLASSICAL_BOUND, mu * TSIRELSON_BOUND
        grid = np.linspace(lo + 1e-12, min(hi, mu), 1000)
        for _ in range(20):
            d_opt = float(rng.uniform(0.7501, TSIRELSON_BOUND - 1e-4))
            p_opt = mu * d_opt
            ok &= abs(tangent_f(p_opt, p_opt, mu) - min_tradeoff_fhat(d_opt, mu)) < 1e-10
            ok &= all(
                tangent_f(float(q1), p_opt, mu) <= min_tradeoff_fhat(float(q1) / mu, mu) + 1e-10
                for q1 in grid
            )
    # analytic derivative against central finite differences
    worst_rel = 0.0
    for mu in (0.01, 0.05, 0.3):
        h = 1e-6 * mu * (TSIRELSON_BOUND - CLASSICAL_BOUND)
        for d_opt in (0.77, 0.8, 0.84):
            p_opt = mu * d_opt
            fd = (
                min_tradeoff_fhat((p_opt + h) / mu, mu) - min_tradeoff_fhat((p_opt - h) / mu, mu)
            ) / (2 * h)
            worst_rel = max(worst_rel, abs(min_tradeoff_slope(p_opt, mu) - fd) / abs(fd))
    ok &= worst_rel < 1e-6
    assert _report(5, ok, f"boundaries, support line, tangency ok; derivative rel err {worst_rel:.2e}")


def test_criterion_06_finite_key_convergence():
    qber = 0.01
    target = asymptotic_rate_cka(3, qber)
    delta = pexp_formula(3, qber)
    start = time.perf_counter()
    ratios = []
    for n in (10**6, 10**8, 10**10, 10**12):
        params = RateParams(n_parties=3, mu=n ** (-0.1), delta=delta, qber=qber, n_rounds=n, eps=EPS)
        ratios.append(finite_key_length(params).key_length / n)
    elapsed = time.perf_counter() - start
    monotone = all(a <= b for a, b in zip(ratios, ratios[1:])) and all(r <= target for r in ratios)
    gap = target - ratios[-1]
    ok = monotone and gap <= 0.05 and elapsed < 1.0
    assert _report(
        6,
        ok,
        f"monotone-from-below {monotone}, gap at n=1e12 is {gap:.4f} (tolerance 0.05), {elapsed:.2f}s",
    )


def _acceptance_batch():
    runs = []
    for seed in range(5000, 5200):
        config = ProtocolConfig(
            n_parties=3,
            n_rounds=10**4,
            mu=0.05,
            delta=0.78,
            qber=0.02,
            eps=EPS,
            rng_seed=seed,
            key_len=128,  # fixed output so key comparison is non-vacuous
        )
        runs.append(run_protocol(config))
    return runs


_BATCH = None


def _get_batch():
    global _BATCH
    if _BATCH is None:
        _BATCH = _acceptance_batch()
    return _BATCH


def test_criterion_07_end_to_end_batch():
    start = time.perf_counter()
    runs = _get_batch()
    elapsed = time.perf_counter() - start
    completed = [r for r in runs if r.abort is None]
    mismatched = sum(1 for r in completed if not r.keys_identical)
    budget = 2 * 1e-8  # (N-1) eps'_EC
    sigma_corr = math.sqrt(budget * (1 - budget) / len(completed))
    corr_ok = mismatched / len(completed) <= budget + 3 * sigma_corr

    total_tests = sum(r.n_test_rounds for r in runs)
    total_wins = sum(r.n_wins for r in runs)
    state = depolarize_each(GHZState(3), qber_to_pdep(0.02))
    p_true = quantum_win_probability(state)
    sigma_win = math.sqrt(p_true * (1 - p_true) / total_tests)
    win_ok = abs(total_wins / total_tests - p_true) < 5 * sigma_win

    ok = corr_ok and win_ok and elapsed < 120.0
    assert _report(
        7,
        ok,
        f"{len(completed)}/200 completed, {mismatched} mismatches, "
        f"win rate {total_wins / total_tests:.5f} vs {p_true:.5f} (5 sigma = {5 * sigma_win:.5f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_completeness_bound():
    runs = _get_batch()
    aborts = sum(1 for r in runs if r.abort is not None)
    params = RateParams(
        n_parties=3, mu=0.05, delta=0.78, qber=0.02, n_rounds=10**4, eps=EPS
    )
    bound = completeness_bound(params, pexp_formula(3, 0.02))
    sigma = math.sqrt(bound * (1 - bound) / len(runs))
    ok = aborts / len(runs) <= bound + 3 * sigma
    assert _report(
        8, ok, f"abort frequency {aborts}/200 vs bound {bound:.4f} + 3 sigma = {bound + 3 * sigma:.4f}"
    )


def test_criterion_09_hashing_suite():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(97))
    linear_ok = True
    for _ in range(200):
        in_len = int(rng.integers(1, 64))
        out_len = int(rng.integers(0, in_len + 1))
        seed = random_seed(in_len, out_len, rng)
        u = rng.integers(0, 2, size=in_len, dtype=np.uint8)
        v = rng.integers(0, 2, size=in_len, dtype=np.uint8)
        linear_ok &= bool(
            np.array_equal(toeplitz_hash(seed, u ^ v), toeplitz_hash(seed, u) ^ toeplitz_hash(seed, v))
        )

    u = rng.integers(0, 2, size=32, dtype=np.uint8)
    v = u.copy()
    v[[1, 9, 22, 31]] ^= 1
    trials = 10**5
    collisions = 0
    for _ in range(trials):
        seed = random_seed(32, 8, rng)
        if np.array_equal(toeplitz_hash(seed, u), toeplitz_hash(seed, v)):
            collisions += 1
    expected = 2.0**-8
    sigma = math.sqrt(expected * (1 - expected) / trials)
    rate = collisions / trials
    elapsed = time.perf_counter() - start
    ok = linear_ok and abs(rate - expected) < 3 * sigma and elapsed < 10.0
    assert _report(
        9,
        ok,
        f"linearity {linear_ok}, collision rate {rate:.5f} vs {expected:.5f} "
        f"(3 sigma = {3 * sigma:.5f}), {elapsed:.1f}s",
    )


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n_parties = 3\nn_rounds = 1000\nmu = 0.05\ndelta = 0.78\nqber = 0.02\n"
        "seed = 424242\nkey_len = 64\n"
        "eps_smooth = 1e-8\neps_pa = 1e-8\neps_ea = 1e-8\n"
        "eps_ec = 2e-8\neps_ec_prime = 1e-8\neps_ec_tilde = 1e-8\n"
    )
    outputs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "dicka", "simulate", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
        )
        assert result.returncode == 0, result.stderr.decode()
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    assert _report(10, ok, f"two invocations produced byte-identical transcripts ({len(outputs[0])} bytes)")
