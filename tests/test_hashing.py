"""Tests for Toeplitz hashing: construction, linearity, two-universality."""

import io
import tracemalloc

import numpy as np
import pytest

from dicka import LengthMismatchError, ToeplitzSeed, bits_to_hex, hashing, toeplitz_hash, verify_hash
from dicka.hashing import PackedBits, as_bits, pack_bits, pack_chunks, random_seed, write_hex_line


def _oracle_matrix(in_len, out_len, diagonal):
    """Dense GF(2) Toeplitz matrix built entry by entry from the diagonal rule."""
    d = np.array([int(ch) for ch in diagonal], dtype=np.uint8)
    j = np.arange(out_len)[:, None]
    i = np.arange(in_len)[None, :]
    return d[j - i + in_len - 1]


def _oracle_shapes(rng):
    """About 300 (in_len, out_len) pairs with in_len up to about 2000.

    Covers out_len of 0, 1 and in_len, and diagonals whose length
    in_len + out_len - 1 lies just below, at and just above a power of two.
    """
    shapes = []
    for k in range(1, 12):
        for diag_len in (2**k - 1, 2**k, 2**k + 1):
            square = diag_len // 2 + 1  # out_len = in_len when diag_len is odd
            shapes += [(diag_len + 1, 0), (diag_len, 1), (square, diag_len + 1 - square)]
            in_len = int(rng.integers(square, diag_len + 1))
            shapes.append((in_len, diag_len + 1 - in_len))
    while len(shapes) < 300:
        in_len = int(np.exp(rng.uniform(0, np.log(2000))))
        out_len = int(rng.choice([0, 1, in_len, int(rng.integers(0, in_len + 1))]))
        shapes.append((in_len, out_len))
    return shapes


def test_zero_diagonal_gives_zero_output():
    seed = ToeplitzSeed(5, 3, np.zeros(7, dtype=np.uint8))
    out = toeplitz_hash(seed, "10111")
    assert np.array_equal(out, np.zeros(3, dtype=np.uint8))


def test_one_by_one_identity():
    seed = ToeplitzSeed(1, 1, "1")
    assert toeplitz_hash(seed, "1").tolist() == [1]
    assert toeplitz_hash(seed, "0").tolist() == [0]


def test_three_by_two_worked_example():
    # diagonal rule: T[j, i] = d[j - i + in_len - 1]
    seed = ToeplitzSeed(3, 2, "1011")
    oracle = _oracle_matrix(3, 2, "1011")
    assert oracle.tolist() == [[1, 0, 1], [1, 1, 0]]
    product = (oracle @ np.array([1, 1, 0])) % 2
    assert product.tolist() == [1, 0]
    assert toeplitz_hash(seed, "110").tolist() == [1, 0]


def test_matrix_matches_oracle_randomised():
    rng = np.random.Generator(np.random.PCG64(5))
    for in_len, out_len in _oracle_shapes(rng):
        seed = random_seed(in_len, out_len, rng)
        oracle = _oracle_matrix(in_len, out_len, seed.diagonal_bits)
        # inputs of nearly all ones as well, so row sums come close to in_len
        u = (rng.random(in_len) < rng.choice([0.5, 0.98])).astype(np.uint8)
        assert np.array_equal(toeplitz_hash(seed, u), (oracle.astype(np.int64) @ u) % 2)


def test_hash_matches_oracle_across_the_block_edge():
    # the real _BLOCK, so the packed diagonal is unpacked in slices that start
    # on byte edges and end anywhere
    rng = np.random.Generator(np.random.PCG64(53))
    block = hashing._BLOCK
    for in_len in (block - 1, block, block + 1):
        for out_len in (1, 27, 129):
            seed = random_seed(in_len, out_len, rng)
            oracle = _oracle_matrix(in_len, out_len, seed.diagonal_bits)
            for u in (np.ones(in_len, dtype=np.uint8), rng.integers(0, 2, size=in_len, dtype=np.uint8)):
                want = np.count_nonzero(oracle & u, axis=1) % 2
                assert np.array_equal(toeplitz_hash(seed, u), want)


@pytest.mark.parametrize("block", [hashing._BLOCK, 61], ids=["BLOCK", "block61"])
def test_packed_and_bit_inputs_match_the_dense_oracle(block, monkeypatch):
    # a packed input is unpacked one block at a time from arbitrary bit
    # offsets: around the block edges, with in_len % 8 of 1 and 7 so the last
    # byte is nearly empty or nearly full, and on all-ones inputs; a square
    # dense oracle at the real block size would take a gigabyte, so
    # out_len = in_len runs with a small block in place of _BLOCK
    monkeypatch.setattr(hashing, "_BLOCK", block)
    rng = np.random.Generator(np.random.PCG64(73))
    for in_len in sorted({1, 7, 9, 63, 65, 1001, 1007, block - 1, block, block + 1, 2 * block + 5}):
        square = [in_len] if in_len <= 2000 else []
        for out_len in sorted({0, 1, min(27, in_len), *square}):
            seed = random_seed(in_len, out_len, rng)
            oracle = _oracle_matrix(in_len, out_len, seed.diagonal_bits)
            for u in (np.ones(in_len, dtype=np.uint8), rng.integers(0, 2, size=in_len, dtype=np.uint8)):
                want = np.count_nonzero(oracle & u, axis=1) % 2
                packed = pack_bits(u)
                assert packed.n_bits == in_len and packed.data.size == (in_len + 7) // 8
                assert np.array_equal(packed.data, np.packbits(u, bitorder="little"))
                assert np.array_equal(toeplitz_hash(seed, u), want)
                assert np.array_equal(toeplitz_hash(seed, packed), want)
                assert verify_hash(seed, packed, want)


def test_packed_bits_read_like_a_bit_array():
    # len and every contiguous slice, across byte edges, empty, reversed and
    # negative, give what the unpacked bits give
    rng = np.random.Generator(np.random.PCG64(79))
    for n_bits in range(42):
        bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        packed = pack_bits(bits)
        assert len(packed) == n_bits
        unpacked = np.unpackbits(packed.data, bitorder="little")[:n_bits]
        assert np.array_equal(unpacked, bits)
        for lo in range(-2, n_bits + 2):
            for hi in range(-2, n_bits + 2):
                got = packed[lo:hi]
                assert got.dtype == np.uint8 and np.array_equal(got, unpacked[lo:hi])
        assert np.array_equal(packed[:], bits) and np.array_equal(packed[3:], bits[3:])
        assert np.array_equal(packed[::1], bits) and np.array_equal(packed[:-3], bits[:-3])
    packed = pack_bits("10110")
    for index in (0, -1, np.int64(2), slice(0, 4, 2), slice(None, None, -1), [0, 1], (slice(0, 2),)):
        with pytest.raises(TypeError):
            packed[index]


def test_packed_input_is_checked_and_passed_through():
    seed = ToeplitzSeed(4, 2, "10110")
    packed = pack_bits("1011")
    assert pack_bits(packed) is packed
    assert toeplitz_hash(seed, packed).tolist() == toeplitz_hash(seed, "1011").tolist()
    with pytest.raises(LengthMismatchError):
        toeplitz_hash(seed, pack_bits("101"))
    with pytest.raises(LengthMismatchError):
        toeplitz_hash(seed, PackedBits(5, packed.data))
    for n_bits, data in ((9, packed.data), (-1, packed.data[:0]), (4, packed.data.astype(np.int64)), (4, [13])):
        with pytest.raises(LengthMismatchError):
            PackedBits(n_bits, data)
    with pytest.raises(ValueError):
        pack_bits([0, 2])


def test_packed_diagonal_round_trips():
    rng = np.random.Generator(np.random.PCG64(59))
    for in_len, out_len in ((1, 0), (1, 1), (2, 1), (5, 3), (8, 1), (9, 8), (64, 64), (1000, 27)):
        bits = rng.integers(0, 2, size=in_len + out_len - 1, dtype=np.uint8)
        seed = ToeplitzSeed(in_len, out_len, bits)
        assert seed.diagonal_bits.dtype == np.uint8
        assert np.array_equal(seed.diagonal_bits, bits)
        # kept packed little-endian, the transcript's hex order, zero-padded
        assert seed.diagonal.n_bits == bits.size and len(seed.diagonal.data) == (bits.size + 7) // 8
        assert seed.diagonal.data.tobytes().hex() == bits_to_hex(bits)
        again = ToeplitzSeed(in_len, out_len, seed.diagonal_bits)
        assert again.diagonal == seed.diagonal and again == seed
        # a packed diagonal is kept as it is, not copied or checked again
        assert ToeplitzSeed(in_len, out_len, seed.diagonal).diagonal is seed.diagonal
    # pack_chunks packs consecutive chunks, each but the last a whole number
    # of bytes, into the bytes pack_bits gives for the whole string, read-only
    for n_bits in (0, 1, 8, 13, 64, 1000, 1003):
        bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        whole = pack_bits(bits)
        for size in (8, 16, 504, 1000):
            packed = pack_chunks(n_bits, (bits[lo:lo + size] for lo in range(0, n_bits, size)))
            assert packed == whole and packed.n_bits == n_bits
            assert not packed.data.flags.writeable
    for n_bits, sizes in ((16, [7, 9]), (16, [8, 9]), (16, [8, 7]), (8, [8, 0, 1])):
        with pytest.raises(LengthMismatchError):
            pack_chunks(n_bits, (np.zeros(size, dtype=np.uint8) for size in sizes))
    # packed strings compare by value
    assert pack_bits("1011") == pack_bits([1, 0, 1, 1]) != pack_bits("1010")
    assert pack_bits("1011") != pack_bits("10110") and pack_bits("1011") != "1011"


def test_large_hash_runs_in_bounded_memory():
    # a dense int64 matrix of this shape would take 8 GB
    rng = np.random.Generator(np.random.PCG64(41))
    in_len, out_len = 10**5, 10**4
    seed = random_seed(in_len, out_len, rng)
    x = rng.integers(0, 2, size=in_len, dtype=np.uint8)
    tracemalloc.start()
    try:
        out = toeplitz_hash(seed, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    d = seed.diagonal_bits.astype(np.int64)
    for j in rng.choice(out_len, size=64, replace=False):
        assert out[j] == (d[j : j + in_len][::-1] @ x) % 2


def _one_shot_hash(seed, bits):
    """The hash as one correlate over the whole input: the reference for the blocked one."""
    if seed.out_len == 0:  # correlate would swap its arguments
        return np.zeros(0, dtype=np.uint8)
    acc = np.correlate(seed.diagonal_bits.astype(np.float64), bits[::-1].astype(np.float64), "valid")
    return (acc.astype(np.int64) & 1).astype(np.uint8)


@pytest.mark.parametrize("block", [hashing._BLOCK, 61], ids=["BLOCK", "block61"])
def test_blocked_hash_matches_one_shot_correlate(block, monkeypatch):
    # around the block edges, on all-ones inputs whose row sums come closest
    # to in_len; a square hash at the real block size costs seconds, so
    # out_len = in_len runs with a small block in place of _BLOCK
    monkeypatch.setattr(hashing, "_BLOCK", block)
    rng = np.random.Generator(np.random.PCG64(43))
    for in_len in (block - 1, block, block + 1, 2 * block + 5):
        square = [in_len] if block < 1000 else []
        for out_len in [0, 1, min(200, in_len)] + square:
            seed = random_seed(in_len, out_len, rng)
            for u in (np.ones(in_len, dtype=np.uint8), rng.integers(0, 2, size=in_len, dtype=np.uint8)):
                assert np.array_equal(toeplitz_hash(seed, u), _one_shot_hash(seed, u))


def test_long_input_hash_holds_bounded_memory():
    # the one-shot correlate would hold two float64 copies of the input: 32 MB here
    rng = np.random.Generator(np.random.PCG64(47))
    in_len, out_len = 2 * 10**6, 27
    seed = random_seed(in_len, out_len, rng)
    x = rng.integers(0, 2, size=in_len, dtype=np.uint8)
    tracemalloc.start()
    try:
        out = toeplitz_hash(seed, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert np.array_equal(out, _one_shot_hash(seed, x))


def test_hash_block_operands_are_single_precision():
    # float32 block operands of _BLOCK input bits and their diagonal slice,
    # about 0.25 MB whatever in_len is, where float64 operands of 2^16 bits
    # took 1 MB; a 0/1 input is sliced as it is, where packing it first would
    # add in_len / 8 = 1 MB here
    rng = np.random.Generator(np.random.PCG64(61))
    in_len, out_len = 2**23, 27
    seed = random_seed(in_len, out_len, rng)
    x = rng.integers(0, 2, size=in_len, dtype=np.uint8)
    tracemalloc.start()
    try:
        out = toeplitz_hash(seed, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.35 * 2**20
    d = seed.diagonal_bits
    assert out.tolist() == [np.count_nonzero(d[j:j + in_len][::-1] & x) % 2 for j in range(out_len)]


def test_block_keeps_float32_sums_exact():
    # the exactness proof in toeplitz_hash needs every block sum, at most
    # _BLOCK, to be an integer float32 holds exactly
    assert 1 <= hashing._BLOCK <= 2**24
    assert float(np.float32(2**24)) == 2**24 and np.float32(2**24) + np.float32(1) == 2**24


def test_random_seed_draws_in_bounded_memory():
    # the packed diagonal is (in_len + out_len) / 8 bytes; a one-shot uint8
    # draw would add a byte per bit, 2 MB here
    in_len, out_len = 2 * 10**6, 27
    rng = np.random.Generator(np.random.PCG64(67))
    random_seed(10, 1, rng)  # lazy set-up on the first draw is not per bit
    tracemalloc.start()
    try:
        seed = random_seed(in_len, out_len, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seed.diagonal.data.size == (in_len + out_len - 1 + 7) // 8
    # plus two chunk draws (the next is drawn before the last is freed)
    assert peak < (in_len + out_len) / 8 + 3 * hashing._SEED_CHUNK


def test_seeds_compare_by_value():
    assert ToeplitzSeed(4, 2, "10110") == ToeplitzSeed(4, 2, "10110")
    assert ToeplitzSeed(4, 2, "10110") != ToeplitzSeed(4, 2, "10111")
    assert ToeplitzSeed(4, 2, "10110") != ToeplitzSeed(5, 1, "10110")
    assert ToeplitzSeed(4, 2, "10110") != "10110"
    bits = np.random.Generator(np.random.PCG64(71)).integers(0, 2, size=1000 + 27 - 1, dtype=np.uint8)
    long_seed = ToeplitzSeed(1000, 27, bits)
    assert long_seed == ToeplitzSeed(1000, 27, bits.copy())
    bits[-1] ^= 1
    assert long_seed != ToeplitzSeed(1000, 27, bits)


def test_linearity():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(200):
        in_len = int(rng.integers(1, 64))
        out_len = int(rng.integers(0, in_len + 1))
        seed = random_seed(in_len, out_len, rng)
        u = rng.integers(0, 2, size=in_len, dtype=np.uint8)
        v = rng.integers(0, 2, size=in_len, dtype=np.uint8)
        lhs = toeplitz_hash(seed, u ^ v)
        rhs = toeplitz_hash(seed, u) ^ toeplitz_hash(seed, v)
        assert np.array_equal(lhs, rhs)


def test_verify_hash_roundtrip():
    rng = np.random.Generator(np.random.PCG64(3))
    seed = random_seed(128, 32, rng)
    msg = rng.integers(0, 2, size=128, dtype=np.uint8)
    tag = toeplitz_hash(seed, msg)
    assert verify_hash(seed, msg, tag)


def test_verify_hash_detects_single_flip():
    # with a 64-bit tag a single flipped bit escapes with probability 2^-64;
    # over 10^4 random seeds we expect zero misses
    rng = np.random.Generator(np.random.PCG64(17))
    msg = rng.integers(0, 2, size=96, dtype=np.uint8)
    misses = 0
    for _ in range(10**4):
        seed = random_seed(96, 64, rng)
        tag = toeplitz_hash(seed, msg)
        flipped = msg.copy()
        flipped[int(rng.integers(0, 96))] ^= 1
        if verify_hash(seed, flipped, tag):
            misses += 1
    assert misses == 0


def test_verify_hash_empty_tag_always_true():
    rng = np.random.Generator(np.random.PCG64(4))
    seed = random_seed(16, 0, rng)
    msg = rng.integers(0, 2, size=16, dtype=np.uint8)
    assert verify_hash(seed, msg, np.zeros(0, dtype=np.uint8))


def test_length_mismatches_raise():
    seed = ToeplitzSeed(4, 2, "10110")
    with pytest.raises(LengthMismatchError):
        toeplitz_hash(seed, "101")
    with pytest.raises(LengthMismatchError):
        verify_hash(seed, "1011", "1")
    with pytest.raises(LengthMismatchError):
        ToeplitzSeed(4, 2, "101")


def test_outside_seed_is_checked_and_drawn_seed_matches_it():
    # bits from outside go through the full check
    with pytest.raises(LengthMismatchError):
        ToeplitzSeed(4, 2, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        ToeplitzSeed(4, 2, np.array([1, 0, 2, 1, 0], dtype=np.uint8))
    with pytest.raises(ValueError):
        ToeplitzSeed(4, 2, "10120")
    # a drawn seed skips the bit check but still rejects bad lengths
    rng = np.random.Generator(np.random.PCG64(37))
    for in_len, out_len in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(LengthMismatchError):
            random_seed(in_len, out_len, rng)
    # and is the seed the checked constructor builds from the same draw
    # sizes below, at and above the draw's chunk
    chunk = hashing._SEED_CHUNK
    for in_len, out_len in ((1, 0), (1, 1), (7, 3), (64, 64), (chunk, 1), (chunk + 3, 27), (2 * chunk + 1, 100)):
        drawn = random_seed(in_len, out_len, np.random.Generator(np.random.PCG64(in_len)))
        bits = np.random.Generator(np.random.PCG64(in_len)).integers(
            0, 2, size=in_len + out_len - 1, dtype=np.uint8
        )
        checked = ToeplitzSeed(in_len, out_len, bits)
        assert (drawn.in_len, drawn.out_len) == (checked.in_len, checked.out_len)
        assert drawn.diagonal_bits.dtype == checked.diagonal_bits.dtype == np.uint8
        assert np.array_equal(drawn.diagonal_bits, checked.diagonal_bits)
        assert drawn.diagonal == checked.diagonal
        assert drawn == checked


def test_as_bits_checks_values_before_the_cast():
    # a cast to uint8 first would truncate 0.5 and 1.7, wrap 256 and -255 and
    # overflow on -1; each of these must be refused as not bits
    seed = ToeplitzSeed(2, 1, "10")
    for bad in (
        [0.5, 1.7],
        np.array([256, 1], dtype=np.int64),
        [-255, 0],
        [1, -1],
        [2, 0],
        np.array([0.0, 1.0]),
        np.array([1, 0], dtype=object),
        ["1", "0"],
        [[0, 1]],
        1,
    ):
        for call in (as_bits, bits_to_hex, lambda bits: toeplitz_hash(seed, bits)):
            with pytest.raises(ValueError) as excinfo:
                call(bad)
            assert excinfo.type is ValueError  # the bit check, not a length mismatch
    with pytest.raises(ValueError):
        ToeplitzSeed(2, 1, [1, 256])
    # bool and every integer dtype holding 0/1 are bits
    for good in ([1, 0], [True, False], np.array([1, 0], dtype=np.int8), np.array([1, 0], dtype=np.uint64)):
        bits = as_bits(good)
        assert bits.dtype == np.uint8
        assert bits.tolist() == [1, 0]
    assert as_bits([]).dtype == np.uint8 and as_bits([]).size == 0
    # uint8 bits pass through without a copy
    u8 = np.array([0, 1, 1], dtype=np.uint8)
    assert as_bits(u8) is u8


def test_two_universality_statistics():
    # collision fraction for fixed distinct inputs, 8-bit output: 2^-8 expected
    rng = np.random.Generator(np.random.PCG64(29))
    u = rng.integers(0, 2, size=32, dtype=np.uint8)
    v = u.copy()
    v[[3, 17, 30]] ^= 1
    trials = 2 * 10**4
    collisions = 0
    for _ in range(trials):
        seed = random_seed(32, 8, rng)
        if np.array_equal(toeplitz_hash(seed, u), toeplitz_hash(seed, v)):
            collisions += 1
    expected = 2.0**-8
    sigma = (expected * (1 - expected) / trials) ** 0.5
    assert abs(collisions / trials - expected) < 3 * sigma


def test_hex_roundtrip():
    rng = np.random.Generator(np.random.PCG64(31))
    for n_bits in (0, 1, 7, 8, 9, 64, 130):
        bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        text = bits_to_hex(bits)
        assert len(text) == 2 * ((n_bits + 7) // 8)
        raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
        unpacked = np.unpackbits(raw, bitorder="little")
        assert np.array_equal(unpacked[:n_bits], bits)
        assert not unpacked[n_bits:].any()
    assert bits_to_hex([1, 0, 1, 1]) == "0d"
    # a hex line is written a slice at a time: across slice edges it is still
    # the hex of the whole string, for 0/1 bits (whose slices are
    # 8 * _HEX_SLICE bits, here with a last byte part-filled) and packed bits
    hex_slice = hashing._HEX_SLICE
    for n_bits in (0, 13, 8 * hex_slice - 3, 8 * hex_slice, 8 * hex_slice + 5, 2 * 8 * hex_slice + 8 * 37 + 3):
        bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        for given in (bits, pack_bits(bits)):
            sink = io.BytesIO()
            write_hex_line(sink, "HEAD 7 ", given)
            assert sink.getvalue() == f"HEAD 7 {bits_to_hex(bits)}\n".encode("ascii")
            assert bits_to_hex(given) == bits_to_hex(bits)
