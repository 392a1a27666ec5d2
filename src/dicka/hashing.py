"""Toeplitz two-universal hashing over GF(2).

Used for privacy amplification and for error-correction verification.  A
seed is the diagonal of a Toeplitz matrix T with T[j, i] =
diagonal_bits[j - i + in_len - 1]; the hash of an input is the GF(2)
matrix-vector product.

The matrix is never built.  Output bit j is the parity of
sum_i diagonal_bits[j - i + in_len - 1] * input[i], which is entry j of the
sliding dot product of the diagonal with the reversed input, so one
``np.correlate`` in float64 computes every sum in O(in_len + out_len)
memory.  Each sum, and every partial sum in any order of addition, is an
integer in [0, in_len]; float64 represents every integer below 2**53
exactly, so the parities are exact for every length an array can have.

Bit strings are numpy uint8 arrays (helpers accept '01' strings too).  Hex
serialization packs bits little-endian within each byte: bit i of the
string is bit i % 8 of byte i // 8.  Hex digits are lowercase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import LengthMismatchError

BitsLike = Union[str, Sequence[int], np.ndarray]


def as_bits(bits: BitsLike) -> np.ndarray:
    """Check a '01' string or a bool or integer sequence of 0/1, then cast it to uint8."""
    if isinstance(bits, str):
        if any(ch not in "01" for ch in bits):
            raise ValueError(f"not a bit string: {bits!r}")
        return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.asarray(bits)
    kind = arr.dtype.kind
    if arr.ndim != 1 or arr.size and (kind not in "biu" or arr.max() > 1 or (kind == "i" and arr.min() < 0)):
        raise ValueError("bits must be a one-dimensional bool or integer array of 0/1")
    return arr.astype(np.uint8, copy=False)


def bits_to_hex(bits: BitsLike) -> str:
    arr = as_bits(bits)
    if arr.size == 0:
        return ""
    return np.packbits(arr, bitorder="little").tobytes().hex()


def hex_to_bits(hexstr: str, n_bits: int) -> np.ndarray:
    if n_bits == 0:
        return np.zeros(0, dtype=np.uint8)
    raw = np.frombuffer(bytes.fromhex(hexstr), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    if bits.size < n_bits or bits[n_bits:].any():
        raise LengthMismatchError(f"hex string does not encode {n_bits} bits")
    return bits[:n_bits].copy()


def _check_lengths(in_len: int, out_len: int) -> None:
    if in_len < 1:
        raise LengthMismatchError("in_len must be positive")
    if not 0 <= out_len <= in_len:
        raise LengthMismatchError("out_len must lie in [0, in_len]")


@dataclass(frozen=True)
class ToeplitzSeed:
    """Diagonal description of an out_len x in_len Toeplitz matrix over GF(2)."""

    in_len: int
    out_len: int
    diagonal_bits: np.ndarray

    def __post_init__(self) -> None:
        _check_lengths(self.in_len, self.out_len)
        bits = as_bits(self.diagonal_bits)
        expected = self.in_len + self.out_len - 1
        if bits.size != expected:
            raise LengthMismatchError(
                f"diagonal needs {expected} bits, got {bits.size}"
            )
        object.__setattr__(self, "diagonal_bits", bits)


def random_seed(in_len: int, out_len: int, rng: np.random.Generator) -> ToeplitzSeed:
    """Draw a fresh seed with uniformly random diagonal bits.

    The drawn diagonal is a uint8 array of 0/1 of the right length by
    construction, so the seed is built without the bit check that
    ``ToeplitzSeed(...)`` runs on bits from outside.
    """
    _check_lengths(in_len, out_len)
    bits = rng.integers(0, 2, size=in_len + out_len - 1, dtype=np.uint8)
    seed = object.__new__(ToeplitzSeed)
    for name, value in (("in_len", in_len), ("out_len", out_len), ("diagonal_bits", bits)):
        object.__setattr__(seed, name, value)
    return seed


def toeplitz_hash(seed: ToeplitzSeed, input: BitsLike) -> np.ndarray:
    """GF(2) product T @ input; output has out_len bits.

    Computed as ``correlate(diagonal, reversed(input), "valid")``, whose
    entry j is sum_i diagonal_bits[j + in_len - 1 - i] * input[i], the
    integer row sum of T @ input.  The terms are 0 or 1, so every partial
    sum is an integer in [0, in_len] and float64 holds it exactly
    (in_len < 2**53): the result does not depend on the order in which BLAS
    adds the terms, and its low bit is the GF(2) product.
    """
    bits = as_bits(input)
    if bits.size != seed.in_len:
        raise LengthMismatchError(f"input has {bits.size} bits, seed expects {seed.in_len}")
    if seed.out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    acc = np.correlate(
        seed.diagonal_bits.astype(np.float64), bits[::-1].astype(np.float64), "valid"
    )
    return (acc.astype(np.int64) & 1).astype(np.uint8)


def verify_hash(seed: ToeplitzSeed, candidate: BitsLike, tag: BitsLike) -> bool:
    """True iff the candidate hashes to the given tag under the seed."""
    tag_bits = as_bits(tag)
    if tag_bits.size != seed.out_len:
        raise LengthMismatchError(f"tag has {tag_bits.size} bits, seed expects {seed.out_len}")
    return bool(np.array_equal(toeplitz_hash(seed, candidate), tag_bits))
