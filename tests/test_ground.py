"""Ground set: sieve correctness, rank queries, cache format."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import oracles
from sqstar import (
    CorruptCacheError,
    NotMemberError,
    OutOfRangeError,
    ResourceBudgetError,
    build_table,
    is_member,
    load_cache,
    save_cache,
)
from sqstar.cli import main

PREFIX = [0, 1, 2, 4, 5, 8, 9, 10, 13, 16, 17, 18, 20, 25, 26, 29, 32]


def test_prefix_17(table_100k):
    assert [table_100k.element(i) for i in range(17)] == PREFIX


def test_flags_match_brute_force():
    limit = 20000
    want = oracles.two_squares_flags(limit)
    assert np.array_equal(build_table(limit).elements, np.flatnonzero(want))


def test_large_prime_single_factor():
    # one prime = 3 (mod 4) above the square root still disqualifies
    t = build_table(1000)
    assert not t.contains(206)  # 206 = 2 * 103
    assert not t.contains(103)
    assert is_member(206) is False


def test_is_member_scalar():
    brute = oracles.two_squares_flags(2000)
    for n in range(2000):
        assert is_member(n) == bool(brute[n]), n
    with pytest.raises(ValueError):
        is_member(-1)


def test_count_below(table_100k):
    brute = oracles.two_squares_flags(100_000)
    cum = np.concatenate([[0], np.cumsum(brute)])
    for x in (0, 1, 2, 3, 4, 17, 100, 99_999, 100_000):
        assert table_100k.count_below(x) == int(cum[x])
    with pytest.raises(OutOfRangeError):
        table_100k.count_below(100_001)
    with pytest.raises(ValueError):
        table_100k.count_below(-1)


def test_count_below_many(table_100k):
    rng = np.random.Generator(np.random.PCG64(7))
    xs = rng.integers(0, 100_001, size=5000)
    got = table_100k.count_below_many(xs)
    want = np.searchsorted(table_100k.elements, xs)
    assert np.array_equal(got, want)
    with pytest.raises(OutOfRangeError):
        table_100k.count_below_many([5, 100_002])


def test_rank_element_roundtrip(table_100k):
    for n in range(0, table_100k.size, 997):
        assert table_100k.rank(table_100k.element(n)) == n
    with pytest.raises(NotMemberError):
        table_100k.rank(3)
    with pytest.raises(NotMemberError):
        table_100k.rank(7)
    with pytest.raises(OutOfRangeError):
        table_100k.rank(100_000)
    with pytest.raises(OutOfRangeError):
        table_100k.element(table_100k.size)
    with pytest.raises(ValueError):
        table_100k.element(-1)


def test_contains(table_100k):
    assert table_100k.contains(0) and table_100k.contains(1)
    assert table_100k.contains(2) and not table_100k.contains(3)
    with pytest.raises(OutOfRangeError):
        table_100k.contains(100_000)


def test_build_validation():
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(ResourceBudgetError):
        build_table(10**12)
    with pytest.raises(ResourceBudgetError):
        build_table(10**6, max_bytes=10**5)
    # uint32 members stop at 2**32, whatever the budget
    with pytest.raises(ValueError):
        build_table(2**32 + 1, max_bytes=2**62)


def test_budget_estimate_tracks_measured_peak():
    # the guard's estimate is never below the traced peak of a build and
    # not far above it
    tracemalloc.start()
    try:
        build_table(10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with pytest.raises(ResourceBudgetError):
        build_table(10**7, max_bytes=peak - 1)
    assert build_table(10**7, max_bytes=int(1.25 * peak)).limit == 10**7


@pytest.mark.parametrize("query", ["count_below", "contains", "rank"])
def test_scalar_query_allocates_almost_nothing(table_100m_timed, query):
    # a scalar query must not touch more than a word of the table
    table, _ = table_100m_timed
    fn = getattr(table, query)
    fn(99_999_997)  # 99999997 = 1346^2 + 9909^2, a member
    tracemalloc.start()
    try:
        fn(99_999_997)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024, (query, peak)


def test_sieve_matches_oracle_at_edge_limits():
    for limit in (2, 3, 10, 1000, 65536):
        want = oracles.two_squares_flags(limit)
        t = build_table(limit)
        assert np.array_equal(t.elements, np.flatnonzero(want)), limit
        assert t.count_below(limit) == int(want.sum()), limit


def test_cache_roundtrip(tmp_path, table_100k):
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    loaded = load_cache(path)
    assert loaded.limit == table_100k.limit
    assert np.array_equal(loaded.elements, table_100k.elements)
    # byte-identical on re-save
    path2 = str(tmp_path / "t2.sgt")
    save_cache(loaded, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_cache_truncation(tmp_path, table_100k):
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-4])
    with pytest.raises(CorruptCacheError):
        load_cache(path)


def test_cache_bad_magic(tmp_path, table_100k):
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    data = bytearray(open(path, "rb").read())
    data[0] = ord("X")
    open(path, "wb").write(bytes(data))
    with pytest.raises(CorruptCacheError):
        load_cache(path)


def test_cache_checksum_flip(tmp_path, table_100k):
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    data = bytearray(open(path, "rb").read())
    data[40] ^= 0xFF  # somewhere inside the element payload
    open(path, "wb").write(bytes(data))
    with pytest.raises(CorruptCacheError):
        load_cache(path)


def _reseal(path, edit):
    """Apply edit(header, words) to a cache file and rewrite its CRC."""
    data = bytearray(open(path, "rb").read())
    head_len = 6 + data[5] + 16
    head = data[:head_len]
    words = np.frombuffer(bytes(data[head_len:-4]), dtype="<u8").copy()
    edit(head, words)
    body = bytes(head) + words.tobytes()
    open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body)))


def test_cache_swapped_bits(tmp_path, table_100k):
    # a set and a clear bit trade places: same popcount, still in range,
    # so only the CRC can tell
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    data = bytearray(open(path, "rb").read())
    first = 6 + data[5] + 16  # byte holding bits 0..7: members 0 1 2 4 5
    assert data[first] & 0b1100 == 0b0100
    data[first] ^= 0b1100
    open(path, "wb").write(bytes(data))
    with pytest.raises(CorruptCacheError, match="checksum"):
        load_cache(path)


def test_cache_bit_at_or_above_limit(tmp_path, table_100k):
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    limit = table_100k.limit

    def edit(head, words):
        words[-1] |= np.uint64(1) << np.uint64(limit & 63)
        struct.pack_into("<Q", head, len(head) - 8, table_100k.size + 1)

    _reseal(path, edit)
    with pytest.raises(CorruptCacheError, match="limit"):
        load_cache(path)


def test_cache_count_disagrees(tmp_path, table_100k):
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    _reseal(path, lambda head, words: struct.pack_into(
        "<Q", head, len(head) - 8, table_100k.size - 1))
    with pytest.raises(CorruptCacheError, match="count"):
        load_cache(path)


def test_cache_predicate_mismatch(tmp_path, table_100k):
    # a cache for any ground set other than sigma is corrupt, even with a
    # valid CRC
    path = str(tmp_path / "e.sgt")
    save_cache(table_100k, path)

    def edit(head, words):
        head[6:11] = b"evens"

    _reseal(path, edit)
    with pytest.raises(CorruptCacheError, match="evens"):
        load_cache(path)
    assert main(["--cache", path, "op", "2", "5"]) == 4


def test_cache_short_file(tmp_path):
    path = str(tmp_path / "x.sgt")
    open(path, "wb").write(b"SG")
    with pytest.raises(CorruptCacheError):
        load_cache(path)


def test_multiplicative_closure(table_1m):
    t = table_1m
    rng = np.random.Generator(np.random.PCG64(23))
    ra = rng.integers(1, t.size, size=10**4)
    a = t.elements[ra].astype(np.int64)
    # largest rank whose element keeps the product below the limit
    bmax = t.count_below_many((t.limit - 1) // a + 1)
    keep = bmax > 1
    rb = 1 + rng.integers(0, np.maximum(bmax - 1, 1))
    for i in np.nonzero(keep)[0]:
        p = int(a[i]) * int(t.elements[rb[i]])
        assert p < t.limit
        assert t.contains(p)
    assert int(keep.sum()) == 10**4  # every a >= 1 leaves room for b = 1


def test_density_band():
    # loose Landau-Ramanujan window; the constant 0.7642 is approached
    # from above so small x sit higher
    import math

    for x in (10**6, 10**7):
        table = build_table(x)
        ratio = table.count_below(x) * math.sqrt(math.log(x)) / x
        assert 0.70 <= ratio <= 1.00
