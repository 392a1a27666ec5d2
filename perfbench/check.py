"""Output checks made apart from the program.

Nothing here imports ``dicka``: transcripts are parsed from their text, the
Parity-CHSH predicate, the GF(2) Toeplitz product, the bit packing and the
closed forms of the security accounting are written out again, so that a
fault in the program cannot hide behind the same fault in its checker.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
TSIRELSON = 0.5 + 0.5 / SQRT2
CLASSICAL = 0.75


# ---------------------------------------------------------------- closed forms


def pexp(n_parties: int, qber: float) -> float:
    """Honest win probability: 1/2 + F^N/(2 sqrt2) + F^2 (1 - F^(N-2))/(4 sqrt2), F = sqrt(1-2Q)."""
    f = math.sqrt(1.0 - 2.0 * qber)
    return 0.5 + f**n_parties / (2.0 * SQRT2) + f**2 * (1.0 - f ** (n_parties - 2)) / (4.0 * SQRT2)


def completeness(n_parties, n_rounds, mu, delta, qber, eps_ec, eps_ec_prime) -> float:
    """(N-1)(2 eps_EC + eps'_EC) + (1 - mu (1 - exp(-2 (p_exp - delta)^2)))^n."""
    gap = pexp(n_parties, qber) - delta
    shrink = mu * (1.0 - math.exp(-2.0 * gap * gap))
    return (n_parties - 1) * (2.0 * eps_ec + eps_ec_prime) + (1.0 - shrink) ** n_rounds


def _h(x):
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x == 0.0) | (x == 1.0), 0.0, out)


def _fhat(p_w, mu):
    s = 4.0 * np.asarray(p_w, dtype=float) - 2.0
    x = np.minimum(0.5 + 0.5 * np.sqrt(np.maximum(s * s - 1.0, 0.0)), 1.0)
    return np.where(p_w < CLASSICAL, 0.0, (1.0 - mu / 2.0) * (1.0 - _h(x)))


def _slope(p_opt, mu):
    s = 4.0 * np.asarray(p_opt, dtype=float) / mu - 2.0
    g = np.sqrt(s * s - 1.0)
    return (1.0 - mu / 2.0) * (np.log1p(g) - np.log1p(-g)) / math.log(2.0) * (2.0 / mu) * (s / g)


def _eta(eps_smooth):
    """1 - sqrt(1 - (eps/4)^2) without cancellation."""
    return -math.expm1(0.5 * math.log1p(-((eps_smooth / 4.0) ** 2)))


def objective(delta_opt, n, mu, delta, eps_smooth, eps_ea):
    """n (tangent(mu delta; mu delta_opt) - mu) - v_tilde(mu delta_opt) sqrt(n), main variant."""
    p_opt = mu * np.asarray(delta_opt, dtype=float)
    slope = _slope(p_opt, mu)
    tangent = slope * (mu * delta - p_opt) + _fhat(p_opt / mu, mu)
    first = 2.0 * (math.log2(13.0) + slope / mu + 1.0) * math.sqrt(1.0 - 2.0 * math.log2(eps_smooth * eps_ea))
    second = 2.0 * math.log2(7.0) * math.sqrt(-(2.0 * math.log2(eps_ea) + math.log2(_eta(eps_smooth))))
    return n * (tangent - mu) - (first + second) * math.sqrt(n)


def other_terms(n_parties, n, mu, qber, eps_pa, eps_smooth, eps_ec_tilde):
    """smoothing_term - pa_term - leak_alice - leak_bobs of the main variant."""
    et = eps_ec_tilde
    sqrt_corr = 4.0 * math.log2(2.0 * SQRT2 + 1.0) * math.sqrt(2.0 * (3.0 - 2.0 * math.log2(et))) * math.sqrt(n)
    const_corr = math.log2(8.0 / et**2 + 2.0 / (2.0 - et))
    leak_alice = n * ((1.0 - mu) * float(_h(qber)) + mu) + sqrt_corr + const_corr
    leak_bobs = (n_parties - 1) * (n * mu + sqrt_corr + const_corr)
    return 3.0 * math.log2(_eta(eps_smooth)) - 2.0 * math.log2(1.0 / eps_pa) - leak_alice - leak_bobs


# finite_key_length searches (3/4, Tsirelson) on a 2000-point grid and never
# comes closer to either end than half a grid step.  Where the supremum lies
# at the open end delta_opt -> 3/4 (every n <= 1e8 in the rate study), the
# scan below keeps the same distance, so it tests for a missed interior
# optimum and not for the resolution of that grid.
EDGE = (TSIRELSON - CLASSICAL) / 2001 / 2


def dense_scan(n, mu, delta, eps_smooth, eps_ea, points=20001):
    """Largest objective value on an even grid over [3/4 + EDGE, Tsirelson - EDGE]."""
    grid = np.linspace(CLASSICAL + EDGE, TSIRELSON - EDGE, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = objective(grid, n, mu, delta, eps_smooth, eps_ea)
    return float(np.nanmax(values))


def rate_cka(n_parties, qber):
    """1 - h(1/2 + 1/2 sqrt(16 a^2 - 1)) - h(Q), a the certified CHSH-type violation."""
    w = 1.0 - 2.0 * qber
    f = math.sqrt(w)
    a = f**n_parties / (2.0 * SQRT2) + w * (1.0 - f ** (n_parties - 2)) / (8.0 * SQRT2)
    arg = 16.0 * a * a - 1.0
    h_term = 1.0 if arg <= 0 else float(_h(min(0.5 + 0.5 * math.sqrt(arg), 1.0)))
    return 1.0 - h_term - float(_h(qber))


# ------------------------------------------------------------ bits and hashing


def bits_hex(bits) -> str:
    """Pack bits little-endian within each byte, lowercase hex."""
    bits = np.asarray(bits, dtype=np.uint8)
    padded = np.zeros(-(-bits.size // 8) * 8, dtype=np.uint8)
    padded[: bits.size] = bits
    weights = 1 << np.arange(8, dtype=np.uint16)
    return bytes((padded.reshape(-1, 8) * weights).sum(axis=1).astype(np.uint8)).hex()


def hex_bits(text: str, n_bits: int) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    bits = ((raw[:, None] >> np.arange(8)) & 1).astype(np.uint8).ravel()
    if bits.size != -(-n_bits // 8) * 8 or bits[n_bits:].any():
        raise ValueError(f"hex does not encode exactly {n_bits} bits")
    return bits[:n_bits]


def toeplitz_gf2(diagonal, in_len: int, out_len: int, x) -> np.ndarray:
    """out[j] = XOR_i T[j, i] x[i] with T[j, i] = diagonal[j - i + in_len - 1]."""
    diagonal = np.asarray(diagonal, dtype=np.uint8)
    x_reversed = np.asarray(x, dtype=np.uint8)[::-1]
    if diagonal.size != in_len + out_len - 1 or x_reversed.size != in_len:
        raise ValueError("Toeplitz shapes do not match")
    # row j over i = 0..in_len-1 reads diagonal[j + in_len - 1 - i], i.e. diagonal[j:j+in_len] reversed
    return np.array(
        [np.count_nonzero(diagonal[j : j + in_len] & x_reversed) & 1 for j in range(out_len)],
        dtype=np.uint8,
    )


def wins(x, y, a, b1, rest_parity) -> np.ndarray:
    """Parity-CHSH predicate a XOR b1 == x (y XOR parity(b2..b_{N-1}))."""
    return (np.asarray(a) ^ np.asarray(b1)) == (np.asarray(x) & (np.asarray(y) ^ np.asarray(rest_parity)))


# ----------------------------------------------------------------- transcripts


@dataclass
class Rounds:
    """Per-round columns of a transcript; ``c`` is -1 for untested rounds."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    outcomes: np.ndarray  # (n, N): Alice, Bob_1, ..., Bob_{N-1}
    c: np.ndarray


@dataclass
class Tally:
    """Counts pooled over many transcripts for the statistical checks."""

    rounds: int = 0
    tests: int = 0
    wins: int = 0
    key_rounds: int = 0
    disagreements: np.ndarray | None = None  # per Bob, on key rounds

    def add(self, r: Rounds) -> None:
        key = r.t == 0
        diff = (r.outcomes[key, 1:] != r.outcomes[key, :1]).sum(axis=0)
        self.rounds += r.t.size
        self.tests += int(r.t.sum())
        self.wins += int((r.c == 1).sum())
        self.key_rounds += int(key.sum())
        self.disagreements = diff if self.disagreements is None else self.disagreements + diff


def within(label, observed, expected, count, sigmas=5.0):
    sigma = math.sqrt(expected * (1.0 - expected) / count)
    if abs(observed - expected) > sigmas * sigma:
        return [f"{label} {observed:.5f} is not within {sigmas:g} sigma ({sigma:.5f}) of {expected:.5f}"]
    return []


def check_tally(tally: Tally, n_parties, mu, qber) -> list[str]:
    """Pooled win rate vs p_exp, each Bob's key-round disagreement vs Q, test fraction vs mu."""
    problems = within("test fraction", tally.tests / tally.rounds, mu, tally.rounds)
    problems += within("win rate", tally.wins / tally.tests, pexp(n_parties, qber), tally.tests)
    for k, d in enumerate(tally.disagreements, start=1):
        problems += within(f"Bob_{k} key-round disagreement", int(d) / tally.key_rounds, qber, tally.key_rounds)
    return problems


def recount(r: Rounds) -> list[str]:
    """Score every test round again and compare with the round marks."""
    test = r.t == 1
    problems = []
    if ((r.x != 0) | (r.y != 2) | (r.c != -1))[~test].any():
        problems.append("a key round carries test inputs or a score")
    if ((r.x > 1) | (r.y > 1) | (r.c == -1))[test].any():
        problems.append("a test round has an input outside {0, 1} or no score")
    rest = np.bitwise_xor.reduce(r.outcomes[test, 2:], axis=1) if r.outcomes.shape[1] > 2 else 0
    o = r.outcomes[test]
    if not np.array_equal(wins(r.x[test], r.y[test], o[:, 0], o[:, 1], rest), r.c[test] == 1):
        problems.append("recounted wins do not match the round marks")
    return problems


def parse_transcript(text: str, n_parties: int, n_rounds: int):
    """Split a transcript into its rounds, hex blocks and summary.

    Raises ValueError when a line is not well formed.
    """
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) < n_rounds + 2:
        raise ValueError("transcript does not end with a newline after its summary")
    width = 10 + n_parties  # " t x y a <bobs> c"
    body = lines[:n_rounds]
    if any(len(line) <= width for line in body):
        raise ValueError("a round line is too short")
    if "\n".join(line[:-width] for line in body) != "\n".join(map(str, range(n_rounds))):
        raise ValueError("round lines are not numbered 0..n-1")
    cells = np.frombuffer("".join(line[-width:] for line in body).encode("ascii"), dtype=np.uint8)
    cells = cells.reshape(n_rounds, width)
    spaces = [0, 2, 4, 6, 8, width - 2]
    digits = np.r_[1, 3, 5, 7, 9 : 9 + n_parties - 1]
    if n_rounds and (
        (cells[:, spaces] != ord(" ")).any()
        or not np.isin(cells[:, digits], list(b"012")).all()
        or not np.isin(cells[:, -1], list(b"01-")).all()
    ):
        raise ValueError("a round line has a malformed field")
    value = cells.astype(np.int64) - ord("0")
    rounds = Rounds(
        t=value[:, 1],
        x=value[:, 3],
        y=value[:, 5],
        outcomes=value[:, np.r_[7, 9 : 9 + n_parties - 1]],
        c=np.where(cells[:, -1] == ord("-"), -1, value[:, -1]),
    )
    if (rounds.t > 1).any() or (rounds.outcomes > 1).any():
        raise ValueError("a round has a bit outside {0, 1}")
    blocks = [line.split(" ") for line in lines[n_rounds:-2]]
    if not lines[-2].startswith("SUMMARY "):
        raise ValueError("the last line is not a SUMMARY")
    return rounds, blocks, json.loads(lines[-2][len("SUMMARY "):])


def check_transcript(text: str, spec: dict, key_len: int, tally: Tally | None = None) -> list[str]:
    """Check one completed, non-aborted transcript of ``dicka simulate``.

    ``spec`` holds n_parties, n_rounds, mu, delta, qber, seed and the
    epsilons; ``key_len`` is the key length the run must have produced.
    Pooled counts of a transcript that passes are added to ``tally``.
    """
    n_par, n = spec["n_parties"], spec["n_rounds"]
    try:
        rounds, blocks, summary = parse_transcript(text, n_par, n)
        problems = recount(rounds)
        problems += _check_blocks(rounds, blocks, summary, spec, key_len)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed transcript: {exc}"]
    tests = int(rounds.t.sum())
    n_wins = int((rounds.c == 1).sum())
    expected = {
        "abort": None,
        "keys_identical": True,
        "n_parties": n_par,
        "n_rounds": n,
        "n_test_rounds": tests,
        "n_wins": n_wins,
        "pe_vacuous": False,
        "seed": spec["seed"],
        "win_rate": n_wins / tests,
    }
    for field, value in expected.items():
        if summary.get(field) != value:
            problems.append(f"SUMMARY {field} is {summary.get(field)!r}, expected {value!r}")
    if n_wins < spec["delta"] * tests - 1e-9:
        problems.append("a run below the abort threshold was not aborted")
    if tally is not None and not problems:
        tally.add(rounds)
    return problems


def _check_blocks(rounds: Rounds, blocks, summary, spec, key_len) -> list[str]:
    n_par, n = spec["n_parties"], spec["n_rounds"]
    alice = rounds.outcomes[:, 0].astype(np.uint8)
    test = rounds.t == 1
    problems = []
    expected_names = ["EC_SEED", "EC_TAG"] + ["EC_DISCLOSE"] * (n_par - 1)
    if key_len > 0:
        expected_names.append("PA_SEED")
    if [b[0] for b in blocks] != expected_names:
        return [f"hex blocks are {[b[0] for b in blocks]}, expected {expected_names}"]

    tag_len = max(1, min(n, math.ceil(-math.log2(spec["eps_ec_prime"]))))
    _, in_len, out_len, diag = blocks[0]
    if (int(in_len), int(out_len)) != (n, tag_len):
        problems.append(f"EC_SEED shape {in_len}x{out_len}, expected {n}x{tag_len}")
    tag = toeplitz_gf2(hex_bits(diag, n + tag_len - 1), n, tag_len, alice)
    if blocks[1][1:] != [str(tag_len), bits_hex(tag)]:
        problems.append("EC_TAG does not match the recomputed tag of Alice's string")
    for k, block in enumerate(blocks[2 : 2 + n_par - 1], start=1):
        disclosed = rounds.outcomes[test, k].astype(np.uint8)
        if block[1:] != [str(k), str(disclosed.size), bits_hex(disclosed)]:
            problems.append(f"EC_DISCLOSE {k} is not Bob_{k}'s test-round output")

    key_hex = ""
    if key_len > 0:
        _, in_len, out_len, diag = blocks[-1]
        if (int(in_len), int(out_len)) != (n, key_len):
            problems.append(f"PA_SEED shape {in_len}x{out_len}, expected {n}x{key_len}")
        key_hex = bits_hex(toeplitz_gf2(hex_bits(diag, n + key_len - 1), n, key_len, alice))
    if summary.get("key_length") != key_len:
        problems.append(f"SUMMARY key_length is {summary.get('key_length')!r}, expected {key_len}")
    if summary.get("keys") != [key_hex] * n_par:
        problems.append("SUMMARY keys are not all the recomputed hash of Alice's string")
    return problems


def expected_key_length(spec: dict) -> int:
    """max(0, floor(raw)) with the tangent point taken from a dense scan."""
    n, mu = spec["n_rounds"], spec["mu"]
    best = dense_scan(n, mu, spec["delta"], spec["eps_smooth"], spec["eps_ea"])
    raw = best + other_terms(spec["n_parties"], n, mu, spec["qber"], spec["eps_pa"], spec["eps_smooth"], spec["eps_ec_tilde"])
    return max(0, math.floor(raw))


# --------------------------------------------------------------- key-rate study


def check_rate_point(point: dict) -> list[str]:
    """Check one (N, Q) point of the rate study: both rates and every finite-key breakdown.

    ``point`` has n_parties, qber, r_cka, r_diqkd, eps (a dict of the six
    epsilons) and ``finite``: a list of (n, mu, delta, breakdown) where the
    breakdown is a dict of the program's KeyLengthBreakdown fields.
    """
    n_par, q, eps = point["n_parties"], point["qber"], point["eps"]
    problems = []
    if not math.isclose(point["r_cka"], rate_cka(n_par, q), rel_tol=1e-12, abs_tol=1e-14):
        problems.append(f"r_cka({n_par}, {q}) = {point['r_cka']!r}, closed form gives {rate_cka(n_par, q)!r}")
    for n, mu, delta, bd in point["finite"]:
        where = f"N={n_par} Q={q} n={n:.0e}"
        terms = ("entropy_term", "second_order", "smoothing_term", "pa_term", "leak_alice", "leak_bobs")
        s = bd["entropy_term"] - bd["second_order"] + bd["smoothing_term"] - bd["pa_term"] - bd["leak_alice"] - bd["leak_bobs"]
        if bd["raw_length"] != s:
            problems.append(f"{where}: raw_length {bd['raw_length']!r} is not the sum of its terms {s!r}")
        if bd["key_length"] != max(0, math.floor(bd["raw_length"])):
            problems.append(f"{where}: key_length {bd['key_length']} is not max(0, floor(raw_length))")
        p_opt = bd["p_opt_chosen"]
        if not mu * CLASSICAL < p_opt < mu * TSIRELSON:
            problems.append(f"{where}: p_opt {p_opt!r} outside (mu*3/4, mu*Tsirelson)")
            continue
        chosen = float(objective(p_opt / mu, n, mu, delta, eps["smooth"], eps["ea"]))
        reported = bd["entropy_term"] - bd["second_order"]
        scale = n * mu
        if abs(chosen - reported) > 1e-9 * scale:
            problems.append(f"{where}: objective at p_opt is {reported!r}, closed form gives {chosen!r}")
        rest = other_terms(n_par, n, mu, q, eps["pa"], eps["smooth"], eps["ec_tilde"])
        if abs(s - reported - rest) > 1e-9 * scale:
            problems.append(f"{where}: smoothing, PA and leakage terms differ from their closed forms")
        # the tolerance, one millionth of the n*mu test-round bits, covers the
        # 1e-10 width at which the golden-section refinement stops
        best = dense_scan(n, mu, delta, eps["smooth"], eps["ea"])
        if best > chosen + 1e-6 * scale:
            problems.append(f"{where}: a dense scan point beats the optimum by {best - chosen:.3g} bits")
        if bd["key_length"] / n > point["r_cka"]:
            problems.append(f"{where}: l/n {bd['key_length'] / n!r} exceeds r_cka {point['r_cka']!r}")
    return problems


def check_rate_curves(points: list[dict]) -> list[str]:
    """r_cka and r_diqkd at Q = 0 and their monotonicity in Q, per N."""
    problems = []
    for n_par in sorted({p["n_parties"] for p in points}):
        row = sorted((p["qber"], p["r_cka"], p["r_diqkd"]) for p in points if p["n_parties"] == n_par)
        at_zero = (1.0, 1.0 / (n_par - 1))
        if row[0][0] == 0.0 and not all(math.isclose(r, e, rel_tol=1e-12) for r, e in zip(row[0][1:], at_zero)):
            problems.append(f"N={n_par}: rates at Q=0 are {row[0][1:]}, expected (1, 1/(N-1))")
        for (q0, c0, d0), (q1, c1, d1) in zip(row, row[1:]):
            if q1 > q0 and (c1 > c0 or d1 > d0):
                problems.append(f"N={n_par}: a rate increases from Q={q0} to Q={q1}")
    return problems
