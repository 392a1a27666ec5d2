"""End-to-end N-party conference-key protocol over simulated channels.

Per round, a noisy GHZ state is prepared and measured with the honest
settings: on test rounds (probability mu) Alice and Bob_1 draw uniform
inputs while the remaining Bobs use input 1; on key rounds everyone
measures Z.  A round's outcome is drawn by inverse CDF from its class's
Born-rule table, built once per (N, qber) from the closed-form depolarized
GHZ state ``quantum.GHZState`` (O(2**N), no density matrix).  Classical
post-processing then runs reconciliation, parameter estimation against the
abort threshold, and privacy amplification.  All randomness comes from named
substreams of one 64-bit seed (the outcomes from raw PCG64 words, a stream
numpy keeps stable), so a configuration fixes its transcript byte for byte.

Reconciliation is ideal-with-verification: each Bob's string is corrected
to Alice's by an oracle channel and checked against a Toeplitz tag of
Alice's string; the classical cost is charged analytically through the
key-length formula rather than transmitted bit for bit.  The Bobs'
test-round outputs are disclosed verbatim, so Alice's guesses for
parameter estimation are exact.  State preparation depends only on the
configuration, never on earlier outcomes.

Every stage walks the rounds in chunks: sampling, the disclosures,
scoring and the packing of Alice's key by ``_CHUNK`` rounds, the round
lines by ``_LINE_CHUNK``, and the hex lines and the hashes by slices and
blocks (see :mod:`dicka.hashing`).  So a stage's temporaries are bounded
by its chunk, not by the run, and a run's memory peaks at what it keeps
plus a fixed amount.  What it keeps grows with the round count: the
transcript's two bytes per round (the round's class, one of
``game.ROUND_CLASSES``, and its outcome index, see :class:`Transcript`;
two bytes for the index from N = 9 on), Alice's raw key packed eight bits
to a byte (the Bobs' oracle keys share it), the EC and PA seeds (one bit
per diagonal bit) and, for the tested fraction mu of the rounds, the Bobs'
disclosures and the wins: about 2.5 bytes per round at N = 3 and
mu = 0.05.

Transcript text format (LF line endings)
----------------------------------------
One line per round::

    <i> <t> <x> <y1> <a> <bob bits> <c>

with ``c`` printed as ``1`` (win), ``0`` (lose) or ``-`` (untested).  The
lines of each ``_LINE_CHUNK`` rounds are built in one fixed-width uint8 byte
matrix (see :meth:`Transcript._round_lines`): ASCII digits, LF line ends, no locale.
Then hex blocks (bit strings packed little-endian per byte and written
by ``hashing.write_hex_line``)::

    EC_SEED <in_len> <out_len> <hex>
    EC_TAG <n_bits> <hex>
    EC_DISCLOSE <k> <n_bits> <hex>        (one line per Bob k = 1..N-1)
    PA_SEED <in_len> <out_len> <hex>      (only when a key was extracted)

and a final JSON summary line ``SUMMARY {...}``.
"""

from __future__ import annotations

import io
import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import BinaryIO, Iterator, Optional

import numpy as np

from .errors import DomainError, InvalidInputError, LengthMismatchError, SizeOutOfRangeError
from .game import ROUND_CLASSES, honest_settings, parity_chsh_wins_bulk
from .hashing import PackedBits, ToeplitzSeed, bits_to_hex, pack_bits, pack_chunks, random_seed, toeplitz_hash
from .hashing import verify_hash, write_hex_line
from .keyrate import RateParams, finite_key_length, qber_to_pdep
from .quantum import MAX_QUBITS, GHZState, depolarize_each, joint_distribution, outcome_bits, party_bits

ABORT_EC = "ec_failure"
ABORT_PE = "parameter_estimation"

# Rounds per chunk of sampling, disclosure, scoring and key packing: large
# enough that numpy's per-call overhead is small, small enough that a
# chunk's temporaries are a few hundred kB whatever the run length.  A
# multiple of 8, so each chunk of Alice's key packs into whole bytes.
_CHUNK = 2**14

# Rounds per chunk of round lines: building them peaks at 60 bytes per round
# at N = 3, 89 at N = 12, so a smaller chunk than _CHUNK keeps them under 0.4 MB.
_LINE_CHUNK = 2**12


@dataclass(frozen=True, kw_only=True)
class ProtocolConfig(RateParams):
    """The rate parameters of one run plus its seed and an optional key-length override."""

    rng_seed: int
    key_len: Optional[int] = None  # override; None means use the computed length

    def __post_init__(self) -> None:
        if self.n_parties < 3:
            raise DomainError(f"protocol needs at least 3 parties, got {self.n_parties}")
        # checked here, before the n-length draws, not only by the outcome tables
        if self.n_parties > MAX_QUBITS:
            raise SizeOutOfRangeError(
                f"n_parties must be at most {MAX_QUBITS} for exact simulation, got {self.n_parties}"
            )
        super().__post_init__()  # checks n_rounds, mu, delta, qber and variant
        if not isinstance(self.rng_seed, numbers.Integral) or not 0 <= self.rng_seed < 2**64:
            raise DomainError(f"rng_seed must be an unsigned 64-bit integer, got {self.rng_seed!r}")
        # checked here, not only in amplify, which an aborted run never reaches
        if self.key_len is not None and (
            not isinstance(self.key_len, numbers.Integral) or not 0 <= self.key_len <= self.n_rounds
        ):
            raise DomainError(
                f"key_len override must be an integer in [0, n_rounds = {self.n_rounds}], got {self.key_len!r}"
            )


@dataclass(eq=False)
class Transcript:
    """Complete record of one protocol run (built up in stages).

    Each round is kept as two numbers: its class (uint8; 0 for a key round,
    1 + 2x + y1 for a test question) and the index of its outcome string
    (party 0 in the most significant bit, in the narrowest unsigned type
    that holds 2**N - 1).  Each Bob's disclosure holds one uint8 0/1 per
    test round, in round order, and so, once parameter estimation has run,
    does ``wins``.  The raw keys are packed eight bits to a byte; the
    oracle-corrected Bobs share Alice's.  The per-round fields ``t``,
    ``x``, ``y1``, ``outcomes`` and ``c`` are decoded from the two numbers
    on each access, as full-length arrays.  Transcripts compare by identity
    (the generated ``==`` would raise on the array fields); compare their
    ``serialize()`` output to compare runs.
    """

    n_parties: int
    n_rounds: int
    rng_seed: int
    round_class: np.ndarray
    outcome_index: np.ndarray
    wins: Optional[np.ndarray] = None
    ec_seed: Optional[ToeplitzSeed] = None
    ec_tag: Optional[np.ndarray] = None
    disclosures: Optional[list[np.ndarray]] = None
    raw_keys: Optional[list[PackedBits]] = None  # Alice first, then the Bobs
    pa_seed: Optional[ToeplitzSeed] = None
    keys: Optional[list[np.ndarray]] = None
    abort: Optional[str] = None
    pe_vacuous: bool = False

    @property
    def t(self) -> np.ndarray:
        """uint8 per round: 1 on test rounds, 0 on key rounds."""
        return ROUND_CLASSES[self.round_class, 0]

    @property
    def x(self) -> np.ndarray:
        """uint8 per round: Alice's input, 0 on key rounds."""
        return ROUND_CLASSES[self.round_class, 1]

    @property
    def y1(self) -> np.ndarray:
        """uint8 per round: Bob_1's input, 2 on key rounds."""
        return ROUND_CLASSES[self.round_class, 2]

    @property
    def outcomes(self) -> np.ndarray:
        """uint8 (n_rounds, n_parties) outcome bits, Alice first."""
        return outcome_bits(self.outcome_index, self.n_parties)

    @property
    def c(self) -> np.ndarray:
        """int8 per round: 1 (win) or 0 (loss) on scored test rounds, -1 elsewhere."""
        c = np.full(self.n_rounds, -1, dtype=np.int8)
        if self.wins is not None:
            c[np.flatnonzero(self.round_class)] = self.wins
        return c

    @property
    def n_test_rounds(self) -> int:
        return int(np.count_nonzero(self.round_class))

    @property
    def n_wins(self) -> Optional[int]:
        return None if self.wins is None else int(self.wins.sum())

    @property
    def win_rate(self) -> Optional[float]:
        wins = self.n_wins
        tests = self.n_test_rounds
        if wins is None or tests == 0:
            return None
        return wins / tests

    @property
    def keys_identical(self) -> Optional[bool]:
        if self.keys is None:
            return None
        first = self.keys[0]
        return all(np.array_equal(first, k) for k in self.keys[1:])

    def summary(self) -> dict:
        return {
            "abort": self.abort,
            "key_length": 0 if self.keys is None else int(len(self.keys[0])),
            "keys": None if self.keys is None else [bits_to_hex(k) for k in self.keys],
            "keys_identical": self.keys_identical,
            "n_parties": int(self.n_parties),
            "n_rounds": int(self.n_rounds),
            "n_test_rounds": self.n_test_rounds,
            "n_wins": self.n_wins,
            "pe_vacuous": self.pe_vacuous,
            "seed": int(self.rng_seed),
            "win_rate": self.win_rate,
        }

    def serialize(self, out: Optional[BinaryIO] = None) -> Optional[str]:
        """Write the transcript to the binary file ``out``, or return its text.

        The round lines come from :meth:`_round_lines` one chunk at a time
        and the hex lines are written a slice at a time, so writing to a
        file holds no more than one chunk of either.  With no ``out`` the
        same bytes are gathered and returned as a ``str``.
        """
        sink = io.BytesIO() if out is None else out
        for chunk in self._round_lines():
            sink.write(chunk)
        ec, pa = self.ec_seed, self.pa_seed
        if ec is not None:
            write_hex_line(sink, f"EC_SEED {ec.in_len} {ec.out_len} ", ec.diagonal)
            write_hex_line(sink, f"EC_TAG {len(self.ec_tag)} ", self.ec_tag)
            for k, disc in enumerate(self.disclosures, start=1):
                write_hex_line(sink, f"EC_DISCLOSE {k} {len(disc)} ", disc)
        if pa is not None:
            write_hex_line(sink, f"PA_SEED {pa.in_len} {pa.out_len} ", pa.diagonal)
        sink.write(("SUMMARY " + json.dumps(self.summary(), sort_keys=True) + "\n").encode("ascii"))
        return str(sink.getbuffer(), "ascii") if out is None else None

    def _round_lines(self) -> Iterator[np.ndarray]:
        """The round lines, each ending in LF, as C-contiguous uint8 byte matrices.

        Each chunk of at most ``_LINE_CHUNK`` rounds is decoded from the
        compact round store and written into one uint8 matrix, a row per
        round: the index in d digits, d that of the chunk's largest index,
        with leading zeros, then the tail ``" t x y1 a <bobs> c\\n"``, one
        ASCII character per field.  The rows of each index width w are
        yielded as the matrix's last d + N + 11 - w columns; only a chunk
        that crosses a power of ten copies those of its narrower rows.
        """
        for s, tests, scored in _test_chunks(self.round_class, _LINE_CHUNK):
            lo, hi = s.start, s.stop
            # decoded before the matrix is made, so the decoder's temporaries never meet it
            bits = outcome_bits(self.outcome_index[s], self.n_parties) + ord("0")
            d = len(str(hi - 1))
            lines = np.full((hi - lo, d + self.n_parties + 11), ord(" "), dtype=np.uint8)
            for k in range(d):
                lines[:, d - 1 - k] = np.arange(lo, hi) // 10**k % 10 + ord("0")
            tail = lines[:, d:]
            tail[:, 1:6:2] = ROUND_CLASSES[self.round_class[s]] + ord("0")
            tail[:, 7] = bits[:, 0]
            tail[:, 9:-3] = bits[:, 1:]
            tail[:, -2:] = ord("-"), ord("\n")
            if self.wins is not None:
                tail[tests - lo, -2] = self.wins[scored] + ord("0")
            a = 0
            for w in range(len(str(lo)), d + 1):
                b = min(hi, 10**w) - lo
                yield np.ascontiguousarray(lines[a:b, d - w:])
                a = b


@dataclass
class _Streams:
    """Named substreams of the run seed; one per stochastic operation."""

    tests: np.random.Generator
    inputs: np.random.Generator
    outcomes: np.random.Generator
    ec: np.random.Generator
    pa: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "_Streams":
        children = np.random.SeedSequence(seed).spawn(5)
        gens = [np.random.Generator(np.random.PCG64(c)) for c in children]
        return cls(*gens)


@lru_cache(maxsize=16)
def _outcome_keys(n_parties: int, qber: float) -> np.ndarray:
    """Every round class's Born table in one sorted uint64 search table.

    Class c (``game.ROUND_CLASSES``), with cumulative outcome distribution
    cum, gives the keys (c << 53) + ceil(min(cum[j], 1) * 2**53), j < 2**N - 1.
    A draw k * 2**-53 of class c has the outcome index p - c * (2**N - 1), p
    the count of keys <= (c << 53) | k, exactly as by inverse CDF: scaling by
    2**53 is exact, so k * 2**-53 >= cum iff k >= ceil(cum * 2**53); dropping
    the last entries caps the index at 2**N - 1; no draw below 1 passes a
    capped entry; and the cap keeps the table sorted: class c's keys <= (c + 1) << 53.
    """
    state = depolarize_each(GHZState(n_parties), qber_to_pdep(qber))
    cums = [np.cumsum(joint_distribution(state, obs))[:-1] for obs in honest_settings(n_parties)]
    return np.concatenate([np.ceil(np.minimum(cum, 1.0) * 2.0**53).astype(np.uint64) + np.uint64(c << 53)
                           for c, cum in enumerate(cums)])


def _chunks(n: int, size: int = _CHUNK) -> Iterator[slice]:
    """Consecutive slices of at most ``size`` rounds that cover ``range(n)``.

    Made one at a time: a list of them would grow with n (64 bytes per
    chunk, 1.6 MB at n = 1e8 in chunks of 2**12).
    """
    for lo in range(0, n, size):
        yield slice(lo, min(lo + size, n))


def _test_chunks(round_class: np.ndarray, size: int = _CHUNK) -> Iterator[tuple[slice, np.ndarray, slice]]:
    """Per chunk of at most ``size`` rounds: its slice, its test rounds and their slice of the test-round arrays.

    The test rounds come as round numbers.  The per-test-round arrays (the
    disclosures and the wins) hold the test rounds in round order, so each
    chunk's test rounds fill the slice after the previous chunk's.
    """
    done = 0
    for s in _chunks(len(round_class), size):
        tests = s.start + np.flatnonzero(round_class[s])
        yield s, tests, slice(done, done + len(tests))
        done += len(tests)


def _measure_rounds(config: ProtocolConfig, streams: _Streams) -> Transcript:
    """Protocol steps 1-2: state preparation, input choice, measurement.

    The transcript's class and outcome-index arrays are allocated once and
    filled ``_CHUNK`` rounds at a time, so sampling's draws and search keys
    exist for one chunk only.  Each stream is drawn in the order a one-shot
    draw would use (all of ``x`` before all of ``y1`` from ``inputs``), and
    ``Generator.random``, int64 ``integers(0, 2)`` and ``random_raw`` give
    the same values in chunks as in one call, so the rounds do not depend on
    ``_CHUNK``.  The raw ``x`` and ``y1`` draws wait in the class and index
    arrays until their chunk is sampled; then the chunk's class is built in
    place from them, in uint8.  Its outcomes are one :func:`_outcome_keys` search.
    """
    n, n_par = config.n_rounds, config.n_parties
    round_class = np.empty(n, dtype=np.uint8)
    outcome_index = np.empty(n, dtype=np.min_scalar_type(2**n_par - 1))
    for raw in (round_class, outcome_index):
        for s in _chunks(n):
            raw[s] = streams.inputs.integers(0, 2, size=s.stop - s.start)

    keys = _outcome_keys(n_par, config.qber)
    for s in _chunks(n):
        test = streams.tests.random(s.stop - s.start) < config.mu
        cls = round_class[s]  # a view holding the raw x: the class 1 + 2x + y1 or 0 is built in place
        cls *= 2
        cls += outcome_index[s].astype(np.uint8, copy=False)
        cls += 1
        cls *= test
        key = streams.outcomes.bit_generator.random_raw(s.stop - s.start) >> 11
        key |= np.left_shift(cls, 53, dtype=np.uint64)
        pos = np.searchsorted(keys, key, side="right")
        del key  # freed before the next chunk-long array is made
        pos -= np.multiply(cls, 2**n_par - 1, dtype=np.int64)
        outcome_index[s] = pos
        del pos
    return Transcript(
        n_parties=n_par,
        n_rounds=n,
        rng_seed=config.rng_seed,
        round_class=round_class,
        outcome_index=outcome_index,
    )


def _tag_length(eps_ec_prime: float, n_rounds: int) -> int:
    # a verification tag cannot usefully exceed the string it authenticates
    return max(1, min(n_rounds, math.ceil(-math.log2(eps_ec_prime))))


def reconcile(
    config: ProtocolConfig,
    transcript: Transcript,
    rng: np.random.Generator,
    bob_keys: Optional[list[np.ndarray]] = None,
) -> Transcript:
    """Protocol step 3: error correction with verification.

    Each Bob's raw key is his outcome string corrected to Alice's by an
    oracle channel, then checked against a Toeplitz tag of Alice's string
    (tag length ceil(log2(1/eps'_EC))).  Each Bob also discloses his
    test-round output bits verbatim, which later serve as Alice's exact
    guesses.  ``bob_keys`` substitutes the corrected strings, as a seam for
    corruption experiments; any verification failure aborts the run.

    The raw keys are kept packed (:class:`~dicka.hashing.PackedBits`):
    Alice's string is packed and the disclosures are gathered ``_CHUNK``
    rounds at a time, and 0/1 ``bob_keys`` are packed whole.
    """
    n, n_par = transcript.n_rounds, transcript.n_parties
    if bob_keys is not None and len(bob_keys) != n_par - 1:
        raise LengthMismatchError(f"need {n_par - 1} Bob keys, got {len(bob_keys)}")
    disclosures = [np.empty(transcript.n_test_rounds, dtype=np.uint8) for _ in range(1, n_par)]
    for _, tests, scored in _test_chunks(transcript.round_class):
        for k, disc in enumerate(disclosures, start=1):
            disc[scored] = party_bits(transcript.outcome_index[tests], n_par, k)
    alice = pack_chunks(n, (party_bits(transcript.outcome_index[s], n_par, 0) for s in _chunks(n)))
    # every oracle-corrected Bob holds Alice's string: share it, read-only
    bobs = [alice] * (n_par - 1) if bob_keys is None else [pack_bits(bits) for bits in bob_keys]
    transcript.disclosures = disclosures
    transcript.raw_keys = [alice] + bobs
    if n == 0:
        return transcript

    seed = random_seed(n, _tag_length(config.eps.ec_prime, n), rng)
    tag = toeplitz_hash(seed, alice)
    transcript.ec_seed = seed
    transcript.ec_tag = tag
    if not all(verify_hash(seed, cand, tag) for cand in bobs):
        transcript.abort = ABORT_EC
    return transcript


def estimate_parameters(config: ProtocolConfig, transcript: Transcript) -> Transcript:
    """Protocol step 4: score test rounds and apply the abort threshold.

    Alice scores each test round with her own output and her (exact)
    guesses of the Bobs' outputs; the run aborts iff the number of wins
    falls below delta times the number of test rounds.  Zero test rounds
    pass vacuously and are flagged.
    """
    if transcript.disclosures is None:
        raise InvalidInputError("reconciliation must run before parameter estimation")
    n_tests = transcript.n_test_rounds
    if n_tests == 0:
        transcript.pe_vacuous = True
        return transcript
    b1, *rest = transcript.disclosures
    wins = np.empty(n_tests, dtype=np.uint8)
    for _, tests, scored in _test_chunks(transcript.round_class):
        _, x, y1 = ROUND_CLASSES[transcript.round_class[tests]].T
        a = party_bits(transcript.outcome_index[tests], transcript.n_parties, 0)
        rest_parity = np.bitwise_xor.reduce([bits[scored] for bits in rest])
        wins[scored] = parity_chsh_wins_bulk(x, y1, a, b1[scored], rest_parity)
    transcript.wins = wins
    # tiny slack so a float representation of delta cannot turn an
    # exact-threshold pass into an abort (e.g. 80 wins of 100 at delta=0.8)
    if transcript.n_wins < config.delta * n_tests - 1e-9:
        transcript.abort = ABORT_PE
    return transcript


def amplify(transcript: Transcript, key_len: int, rng: np.random.Generator) -> Transcript:
    """Protocol step 5: hash every party's raw key down to ``key_len`` bits."""
    if transcript.abort is not None:
        raise InvalidInputError("cannot amplify an aborted run")
    if transcript.raw_keys is None:
        raise InvalidInputError("reconciliation must run before privacy amplification")
    n = transcript.n_rounds
    if key_len > n:
        raise LengthMismatchError(f"key length {key_len} exceeds round count {n}")
    if key_len == 0 or n == 0:
        transcript.keys = [np.zeros(0, dtype=np.uint8) for _ in transcript.raw_keys]
        return transcript
    seed = random_seed(n, key_len, rng)
    transcript.pa_seed = seed
    transcript.keys = [toeplitz_hash(seed, raw) for raw in transcript.raw_keys]
    return transcript


def run_protocol(config: ProtocolConfig) -> Transcript:
    """Execute the full protocol; aborts land in the transcript, not errors."""
    streams = _Streams.from_seed(config.rng_seed)
    transcript = _measure_rounds(config, streams)
    reconcile(config, transcript, streams.ec)
    if transcript.abort is not None:
        return transcript
    estimate_parameters(config, transcript)
    if transcript.abort is not None:
        return transcript
    if config.key_len is not None:
        key_len = config.key_len
    else:
        key_len = finite_key_length(config).key_length
    amplify(transcript, key_len, streams.pa)
    return transcript
