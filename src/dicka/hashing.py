"""Toeplitz two-universal hashing over GF(2).

Used for privacy amplification and for error-correction verification.  A
seed is the diagonal of a Toeplitz matrix T with T[j, i] =
diagonal_bits[j - i + in_len - 1]; the hash of an input is the GF(2)
matrix-vector product.

The matrix is never built.  Output bit j is the parity of
sum_i diagonal_bits[j - i + in_len - 1] * input[i], which is entry j of the
sliding dot product of the diagonal with the reversed input.  The reversed
input is taken in blocks of ``_BLOCK`` bits; one float32 ``np.correlate``
of a block against the matching slice of the diagonal gives that block's
share of every output sum.  Each share is cast to int64 and the shares are
added up in int64.  Exactness is proved, not measured: every product is 0
or 1, so every partial sum inside a block's correlation is an integer in
[0, _BLOCK], in whatever order BLAS adds the terms; IEEE single precision
represents every integer up to 2**24 exactly, so each share is exact while
``_BLOCK`` <= 2**24; and the int64 running totals lie in [0, in_len], exact
for every length an array can have.  Time is O(in_len * out_len).

This module is the one home of the packed bit-string format.  Bit strings
are numpy uint8 arrays of 0/1 (helpers accept '01' strings too) or, for
long strings that are kept, :class:`PackedBits`: bit i of the string is
bit i % 8 of byte i // 8 (little-endian within each byte), and the hex of
a string is the lowercase hex of those bytes.  ``pack_bits`` packs a whole
string, ``pack_chunks`` packs one chunk at a time, ``bits_to_hex`` writes
the hex and ``write_hex_line`` writes it to a file a slice at a time.  A
:class:`PackedBits` is read like a 0/1 array: ``len(s)``, and ``s[lo:hi]``
gives bits lo..hi - 1 as uint8 0/1, so code that reads a bit string a
slice at a time reads both kinds the same way.

A seed keeps its diagonal as a :class:`PackedBits`, so a kept seed costs
(in_len + out_len) / 8 bytes; it is drawn one chunk at a time.  The hash
reads the diagonal and its input one block slice at a time: it never holds
an unpacked copy of a packed string, and copies a 0/1 input only to cast
it to uint8.  Its working memory is about 8 * _BLOCK + 4 * out_len bytes
of float32 block operands (0.25 MB for a short output), 2 * _BLOCK bytes
of unpacked bits and 8 * out_len bytes of int64 sums, whatever in_len is.
"""

from __future__ import annotations

from binascii import hexlify
from typing import BinaryIO, Iterable, Sequence, Union

import numpy as np

from .errors import LengthMismatchError

BitsLike = Union[str, Sequence[int], np.ndarray]

# Input bits per correlate call.  Must stay <= 2**24: a block's sums reach
# _BLOCK, and float32 holds every integer up to 2**24 exactly.  A call's
# float32 operands take about 8 * _BLOCK + 4 * out_len bytes (0.25 MB at
# this size for a short output), whatever in_len is; blocks of 2**14 to
# 2**16 bits hash 2e5 or 1e6 bits in the same time, so larger ones only cost memory.
_BLOCK = 2**15

# Diagonal bits per draw in random_seed: a multiple of 8, so each chunk
# packs into whole bytes, and hence of 4, the lengths at which numpy's
# buffered uint8 draws give the one-shot values when split.
_SEED_CHUNK = 2**16

# Packed bytes per write of a hex line: its temporaries take at most about
# 11 bytes per packed byte (a uint8 cast of 0/1 bits, packed bytes, the hex).
_HEX_SLICE = 2**13


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


class PackedBits:
    """A bit string of ``n_bits`` bits kept packed little-endian in ``data``, the hex order above.

    ``data`` is a uint8 array of (n_bits + 7) // 8 bytes; the unused high
    bits of its last byte are zero.  Two packed strings are equal when their
    lengths and bytes are.  A plain class, so defining it costs nothing at
    import.
    """

    __slots__ = ("n_bits", "data")

    def __init__(self, n_bits: int, data: np.ndarray) -> None:
        size = (n_bits + 7) // 8
        if n_bits < 0 or not (isinstance(data, np.ndarray) and data.dtype == np.uint8 and data.shape == (size,)):
            raise LengthMismatchError(f"{n_bits} packed bits need a uint8 array of {size} bytes")
        self.n_bits = n_bits
        self.data = data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedBits):
            return NotImplemented
        return self.n_bits == other.n_bits and bool(np.array_equal(self.data, other.data))

    def __len__(self) -> int:
        return self.n_bits

    def __getitem__(self, index: slice) -> np.ndarray:
        """The bits of a contiguous slice as a uint8 array of 0/1, unpacked from the bytes that hold them."""
        if not isinstance(index, slice) or index.step not in (None, 1):
            raise TypeError("a packed bit string is read by contiguous slices only")
        lo, hi, _ = index.indices(self.n_bits)
        hi, first = max(lo, hi), lo // 8
        return np.unpackbits(self.data[first:(hi + 7) // 8], bitorder="little")[lo - 8 * first:hi - 8 * first]


def pack_chunks(n_bits: int, chunks: Iterable[np.ndarray]) -> PackedBits:
    """Pack a string of ``n_bits`` bits given as consecutive uint8 0/1 chunks; the bytes are read-only.

    Each chunk is packed into its place as it comes, so the whole string is
    never held unpacked.  Every chunk but the last must be a whole number of
    bytes long.  The chunks are not checked to be 0/1.
    """
    data = np.empty((n_bits + 7) // 8, dtype=np.uint8)
    lo = 0
    for bits in chunks:
        if lo % 8 or lo + bits.size > n_bits:
            raise LengthMismatchError(f"a {bits.size}-bit chunk at bit {lo} does not fit {n_bits} bits")
        data[lo // 8:(lo + bits.size + 7) // 8] = np.packbits(bits, bitorder="little")
        lo += bits.size
    if lo != n_bits:
        raise LengthMismatchError(f"chunks hold {lo} bits, not {n_bits}")
    data.setflags(write=False)
    return PackedBits(n_bits, data)


def pack_bits(bits: Union[BitsLike, PackedBits]) -> PackedBits:
    """Check 0/1 bits and pack them; a :class:`PackedBits` is returned as it is."""
    if isinstance(bits, PackedBits):
        return bits
    arr = as_bits(bits)
    return PackedBits(arr.size, np.packbits(arr, bitorder="little"))


def bits_to_hex(bits: Union[BitsLike, PackedBits]) -> str:
    return pack_bits(bits).data.tobytes().hex()


def write_hex_line(sink: BinaryIO, head: str, bits: Union[np.ndarray, PackedBits]) -> None:
    """Write ``head``, ``bits_to_hex(bits)`` and LF to the binary file ``sink``.

    The hex goes out ``_HEX_SLICE`` packed bytes at a time, taken from a
    :class:`PackedBits` or packed from 0/1 bits: no more than one slice is held.
    """
    sink.write(head.encode("ascii"))
    packed = isinstance(bits, PackedBits)
    for lo in range(0, len(bits), 8 * _HEX_SLICE):
        data = bits.data[lo // 8:lo // 8 + _HEX_SLICE] if packed else pack_bits(bits[lo:lo + 8 * _HEX_SLICE]).data
        sink.write(hexlify(data))
    sink.write(b"\n")


def _check_lengths(in_len: int, out_len: int) -> None:
    if in_len < 1:
        raise LengthMismatchError("in_len must be positive")
    if not 0 <= out_len <= in_len:
        raise LengthMismatchError("out_len must lie in [0, in_len]")


class ToeplitzSeed:
    """Diagonal description of an out_len x in_len Toeplitz matrix over GF(2).

    Built from the diagonal's in_len + out_len - 1 bits, 0/1 bits (checked
    and packed) or a :class:`PackedBits` (kept as it is), and kept packed in
    ``diagonal``.  Two seeds are equal when their lengths and diagonals are.
    """

    __slots__ = ("in_len", "out_len", "diagonal")

    def __init__(self, in_len: int, out_len: int, diagonal_bits: Union[BitsLike, PackedBits]) -> None:
        _check_lengths(in_len, out_len)
        diagonal = pack_bits(diagonal_bits)
        expected = in_len + out_len - 1
        if diagonal.n_bits != expected:
            raise LengthMismatchError(f"diagonal needs {expected} bits, got {diagonal.n_bits}")
        self.in_len, self.out_len, self.diagonal = in_len, out_len, diagonal

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ToeplitzSeed):
            return NotImplemented
        return (self.in_len, self.out_len, self.diagonal) == (other.in_len, other.out_len, other.diagonal)

    @property
    def diagonal_bits(self) -> np.ndarray:
        """The diagonal as a uint8 array of 0/1, unpacked on each access."""
        return self.diagonal[:]


def random_seed(in_len: int, out_len: int, rng: np.random.Generator) -> ToeplitzSeed:
    """Draw a fresh seed with uniformly random diagonal bits.

    The bits come from uint8 ``integers`` calls of ``_SEED_CHUNK`` bits
    each, the last one shorter, packed one chunk at a time by
    :func:`pack_chunks`, so no full-length unpacked diagonal is held.  The
    chunks give the values of one call over the whole diagonal, because
    numpy draws uint8 values four to a 32-bit word and every chunk but the
    last is a whole number of words.  The drawn bits are 0/1 by
    construction, so the packed diagonal goes to the seed unchecked.
    """
    _check_lengths(in_len, out_len)
    n_bits = in_len + out_len - 1
    sizes = (min(_SEED_CHUNK, n_bits - lo) for lo in range(0, n_bits, _SEED_CHUNK))
    draws = (rng.integers(0, 2, size=size, dtype=np.uint8) for size in sizes)
    return ToeplitzSeed(in_len, out_len, pack_chunks(n_bits, draws))


def toeplitz_hash(seed: ToeplitzSeed, input: Union[BitsLike, PackedBits]) -> np.ndarray:
    """GF(2) product T @ input; output has out_len bits.

    The input may be 0/1 bits, checked and then sliced as they are, or a
    :class:`PackedBits`, unpacked a slice at a time, in the same blocks.

    With r the reversed input, entry j of the product's integer row sum is
    sum_k diagonal_bits[j + k] * r[k].  The k in one block [m0, m1) of r
    contribute ``correlate(diagonal_bits[m0:m1 + out_len - 1], r[m0:m1],
    "valid")[j]``, so the blocks' correlations add up to the row sums.  The
    terms are 0 or 1, so every partial sum inside a block's float32
    correlation is an integer in [0, _BLOCK], in whatever order BLAS adds
    them, and float32 holds each exactly because _BLOCK <= 2**24.  The
    block sums are cast to int64 and added in int64, so the running totals,
    integers in [0, in_len], are exact too.  The result therefore does not
    depend on the block size or on the order of addition, and the low bit
    of each total (``& 1``) is the GF(2) product.
    """
    bits = input if isinstance(input, PackedBits) else as_bits(input)
    in_len, out_len = seed.in_len, seed.out_len
    if len(bits) != in_len:
        raise LengthMismatchError(f"input has {len(bits)} bits, seed expects {in_len}")
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)

    def block_sums(m0: int) -> np.ndarray:
        # r[m0:m1] is input bits in_len - m1 .. in_len - m0 - 1, reversed;
        # the last block clips at in_len, and its diagonal slice with it
        m1 = min(m0 + _BLOCK, in_len)
        return np.correlate(
            seed.diagonal[m0:m1 + out_len - 1].astype(np.float32),
            bits[in_len - m1:in_len - m0][::-1].astype(np.float32),
            "valid",
        ).astype(np.int64)

    acc = block_sums(0)
    for m0 in range(_BLOCK, in_len, _BLOCK):
        acc += block_sums(m0)
    return (acc & 1).astype(np.uint8)


def verify_hash(seed: ToeplitzSeed, candidate: Union[BitsLike, PackedBits], tag: BitsLike) -> bool:
    """True iff the candidate hashes to the given tag under the seed."""
    tag_bits = as_bits(tag)
    if tag_bits.size != seed.out_len:
        raise LengthMismatchError(f"tag has {tag_bits.size} bits, seed expects {seed.out_len}")
    return bool(np.array_equal(toeplitz_hash(seed, candidate), tag_bits))
