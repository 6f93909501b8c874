"""Ground set: sieve correctness, rank queries, cache format."""

import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import oracles
import sqstar
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
    t = build_table(limit)
    assert np.array_equal(t.members(t.size), np.flatnonzero(want))


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
    assert repr(table_100k) == f"GroundTable(limit=100000, size={int(cum[-1])})"
    with pytest.raises(OutOfRangeError):
        table_100k.count_below(100_001)
    with pytest.raises(ValueError):
        table_100k.count_below(-1)


def test_count_below_many(table_100k):
    rng = np.random.Generator(np.random.PCG64(7))
    xs = rng.integers(0, 100_001, size=5000)
    got = table_100k.count_below_many(xs)
    want = np.searchsorted(table_100k.members(table_100k.size), xs)
    assert np.array_equal(got, want)
    with pytest.raises(OutOfRangeError):
        table_100k.count_below_many([5, 100_002])


def test_count_below_many_contract(tmp_path, table_1m):
    t = build_table(1000)
    # int64 answers whatever the bounds' dtype, an empty input included
    for xs in (np.array([True, False]), np.array([0, 63, 64, 127, 1000]),
               np.array([0, 63, 64, 127, 1000], dtype=np.uint64), [], np.array([], dtype=np.uint64)):
        got = t.count_below_many(xs)
        assert got.dtype == np.int64
        assert got.tolist() == [t.count_below(int(x)) for x in np.asarray(xs).tolist()]
    # bits 0 and 63 of words, the limit, and bounds across a chunk edge of
    # a freshly loaded cache, which fills the directory only part way
    path = str(tmp_path / "t.sgt")
    save_cache(table_1m, path)
    loaded = load_cache(path)
    edge = 64 * sqstar.ground._CHUNK_WORDS
    members = table_1m.members(table_1m.size)
    xs = np.array([0, 63, 64, 64 * 99 + 63, edge - 64, edge - 1, edge, edge + 63, edge + 64])
    got = loaded.count_below_many(xs)
    assert 0 < loaded._known < loaded._words.size
    assert got.tolist() == np.searchsorted(members, xs).tolist()
    assert got.tolist() == [loaded.count_below(int(x)) for x in xs]
    at_limit = np.array([table_1m.limit - 1, table_1m.limit])
    assert loaded.count_below_many(at_limit).tolist() == np.searchsorted(members, at_limit).tolist()


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


def test_membership_reads_at_the_limit(table_100k):
    t = table_100k
    assert t.contains(2) is True and t.contains(3) is False
    assert t.rank(2) == 2
    message = f"value {t.limit} not covered by table limit {t.limit}"
    for read in (t.contains, t.rank):
        with pytest.raises(OutOfRangeError) as exc:
            read(t.limit)
        assert str(exc.value) == message
    with pytest.raises(NotMemberError) as exc:
        t.rank(3)
    assert str(exc.value) == "3 is not in the ground set"


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


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_build_peak_rss_is_bounded():
    # the segmented sieve holds the bitset and one bool segment, not a
    # bool per candidate, and the rank directory is filled only on demand:
    # a 1e8 build grows a fresh process's peak by about 14 MB over its
    # imports, where a whole-range sieve grew it by about 108 MB.  The child reads its VmHWM in KiB,
    # because Linux carries ru_maxrss across exec from the forking process.
    code = (
        "import sqstar\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(s.split()[1]) for s in fh if s.startswith('VmHWM:'))\n"
        "base = peak()\n"
        "sqstar.build_table(10**8)\n"
        "print(peak() - base)\n"
    )
    src = os.path.dirname(os.path.dirname(sqstar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    growth_mb = int(out.stdout) / 1024
    assert growth_mb < 60, growth_mb


# 99999997 = 1346^2 + 9909^2 is a member; element takes a rank instead
SCALAR_ARGS = {"count_below": 99_999_997, "contains": 99_999_997, "rank": 99_999_997,
               "element": 123_456}


@pytest.mark.parametrize("query", ["count_below", "contains", "rank", "element"])
def test_scalar_query_allocates_almost_nothing(table_100m_timed, query):
    # a scalar query must not touch more than a word of the table; the
    # warm-up call selects the members element reads
    table, _ = table_100m_timed
    fn = getattr(table, query)
    arg = SCALAR_ARGS[query]
    fn(arg)
    tracemalloc.start()
    try:
        fn(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024, (query, peak)


def test_sieve_matches_oracle_at_edge_limits():
    for limit in (2, 3, 10, 1000, 65536):
        want = oracles.two_squares_flags(limit)
        t = build_table(limit)
        assert np.array_equal(t.members(t.size), np.flatnonzero(want)), limit
        assert t.count_below(limit) == int(want.sum()), limit


@pytest.mark.parametrize("limit", [2, 64, 65537, 10**6])
def test_members_on_demand_match_oracle(limit):
    # check rank 0, each chunk's first rank +-1 and the last rank, filling
    # in order
    want = np.flatnonzero(oracles.two_squares_flags(limit))
    t = build_table(limit)
    assert t.size == want.size
    firsts = [t.count_below(x) for x in range(0, limit + 1, 2**16)]
    ranks = {r + d for r in firsts for d in (-1, 0, 1)} | {0, want.size - 1}
    for r in sorted(r for r in ranks if 0 <= r < want.size):
        assert t.element(r) == want[r], (limit, r)
        assert np.array_equal(t.members(r + 1), want[: r + 1]), (limit, r)
    # a table asked for its last member first selects every chunk at once
    cold = build_table(limit)
    assert cold.element(want.size - 1) == want[-1]
    assert np.array_equal(cold.members(cold.size), want)
    assert cold.members(0).size == 0


@pytest.mark.parametrize("source", ["built", "loaded"])
@pytest.mark.parametrize("limit", [2, 64, 4096, 4097, 65537, 300_001])
def test_members_select_block_edges_match_oracle(tmp_path, limit, source):
    # members are selected through the block of 64 words (2^12 values)
    # holding the largest rank asked for, and no further: check both ends
    # of every block and one rank either side (the last, partial block and
    # size - 1 included), asked in ascending order and in random order
    flags = oracles.two_squares_flags(limit)
    want = np.flatnonzero(flags)
    cum = np.concatenate([[0], np.cumsum(flags)])  # cum[x]: members below x
    block = 64 * sqstar.ground._BLOCK_WORDS
    firsts = [int(cum[x]) for x in range(0, limit, block)] + [want.size]
    ranks = sorted({r + d for r in firsts for d in (-2, -1, 0, 1)} & set(range(want.size)))
    path = str(tmp_path / "t.sgt")
    save_cache(build_table(limit), path)
    rng = np.random.Generator(np.random.PCG64(limit))
    for order in (ranks, rng.permutation(ranks).tolist()):
        t = build_table(limit) if source == "built" else load_cache(path)
        reached = 0
        for i, r in enumerate(order):
            reached = max(reached, int(cum[min((want[r] // block + 1) * block, limit)]))
            if i % 2:
                assert t.element(r) == want[r], (limit, source, r)
            else:
                assert np.array_equal(t.members(r + 1), want[: r + 1]), (limit, source, r)
            assert t._ready == reached, (limit, source, r)


def sieve_bits(limit):
    """The sieve's bits below limit, after checking that none above it is set."""
    bits = np.unpackbits(sqstar.ground._sieve(limit).view(np.uint8), bitorder="little")
    assert not bits[limit:].any(), limit
    return bits[:limit]


def test_sieve_matches_oracle_at_every_small_limit():
    # word edges, a limit inside segment 0's doubling and every residue mod 4
    for limit in range(2, 301):
        assert np.array_equal(sieve_bits(limit), oracles.two_squares_flags(limit)), limit


def test_sieve_matches_oracle_at_segment_edges():
    seg = sqstar.ground._SEGMENT
    for limit in (seg - 1, seg, seg + 1, 2 * seg + 65):
        assert np.array_equal(sieve_bits(limit), oracles.two_squares_flags(limit)), limit


@pytest.mark.parametrize("segment", [64, 4096])
@pytest.mark.parametrize("pairs", [1, 7])
def test_sieve_matches_oracle_across_segments_and_batches(monkeypatch, segment, pairs):
    # many segments copy their evens from earlier words, and rows of pairs
    # are cut into batches at every length, a batch of one long row included
    monkeypatch.setattr(sqstar.ground, "_SEGMENT", segment)
    monkeypatch.setattr(sqstar.ground, "_PAIRS", pairs)
    want = oracles.two_squares_flags(200_000)
    for limit in (segment - 1, segment + 1, 3 * segment + 70, 200_000):
        assert np.array_equal(sieve_bits(limit), want[:limit]), limit


def test_pronic_floor_is_exact():
    # largest v >= -1 with v(v+1) <= x, at and around every pronic number
    # up to the largest the sieve asks about (limit 2**32 gives x < 2**30)
    k = np.arange(2**15 + 2, dtype=np.int64)
    for d in (-1, 0, 1):
        x = k * (k + 1) + d
        want = k - (d < 0)
        assert np.array_equal(sqstar.ground._pronic_floor(x), want), d
    assert np.array_equal(sqstar.ground._pronic_floor(np.array([-5, -1])), [-1, -1])


def test_sieve_at_1e8_is_pinned(table_100m_timed):
    # member count and bitset checksum of the 1e8 table, as the a <= b
    # pair-marking sieve that the residue-class sieve replaced gave them
    table, _ = table_100m_timed
    assert table.size == 18_457_847
    assert zlib.crc32(table._words) == 0x5F5EBF76


@pytest.mark.parametrize("limit", [10**5, 10**6, 10**7])
def test_sieve_budget_covers_its_traced_peak(limit):
    tracemalloc.start()
    try:
        sqstar.ground._sieve(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with pytest.raises(ResourceBudgetError, match="the sieve"):
        build_table(limit, max_bytes=peak - 1)
    # not far above the peak: half as much again passes the sieve stage,
    # though the table stage may still refuse it
    try:
        build_table(limit, max_bytes=int(1.5 * peak))
    except ResourceBudgetError as err:
        assert "the table" in str(err), str(err)


def test_members_view_is_read_only(table_100k):
    for view in (table_100k.members(100), table_100k.members(table_100k.size)):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 7
        with pytest.raises(ValueError):
            view.setflags(write=True)
    with pytest.raises(ValueError):
        table_100k.members(-1)
    with pytest.raises(OutOfRangeError):
        table_100k.members(table_100k.size + 1)


def test_rank_past_table_message():
    t = build_table(1000)  # nothing selected yet
    msg = f"rank {t.size} exceeds table size {t.size} (limit 1000)"
    with pytest.raises(OutOfRangeError, match=re.escape(msg)):
        t.element(t.size)
    t.element(t.size - 1)  # everything selected
    with pytest.raises(OutOfRangeError, match=re.escape(msg)):
        t.element(t.size)


def test_load_then_element_selects_one_chunk(tmp_path, table_1m):
    path = str(tmp_path / "t.sgt")
    save_cache(table_1m, path)
    loaded = load_cache(path)
    assert loaded.element(10) == table_1m.element(10)
    assert 0 < loaded._ready == loaded.count_below(64 * sqstar.ground._BLOCK_WORDS)


def test_load_then_count_fills_one_directory_chunk(tmp_path, table_1m, monkeypatch):
    path = str(tmp_path / "t.sgt")
    save_cache(table_1m, path)
    reads = []
    real = sqstar.ground._CacheFile.read

    def read(self, words, lo, end):
        reads.append((lo, end))
        return real(self, words, lo, end)

    monkeypatch.setattr(sqstar.ground._CacheFile, "read", read)
    loaded = load_cache(path)
    assert loaded.count_below(1000) == table_1m.count_below(1000)
    assert 0 < loaded._known <= 1024  # one chunk of 2^10 words
    assert reads == [(0, 1024)]


def test_count_below_many_refuses_non_integers():
    # 0, 1 and 2 lie below 2.5; truncating the bound to 2 would answer 2
    t = build_table(1000)
    with pytest.raises(TypeError):
        t.count_below(2.5)
    with pytest.raises(TypeError):
        t.count_below_many([2.5])
    with pytest.raises(TypeError):
        t.count_below_many(np.array([3, 4], dtype=np.float32))
    # bools are bounds, as operator.index(True) == 1
    assert t.count_below_many(np.array([True, False])).tolist() == [1, 0]
    assert t.count_below_many([]).size == 0


@pytest.mark.parametrize("source", ["built", "loaded"])
@pytest.mark.parametrize("limit", [2, 63, 64, 65, 65536, 65537, 10**6])
def test_directory_on_demand_matches_oracle(tmp_path, limit, source):
    # the rank directory is filled a chunk of 2^16 values at a time: query
    # fresh tables in ascending, descending and random order, at word and
    # chunk edges and at x = limit, with each query kind alone and then
    # with the kinds taking turns at being the first to reach a new bound
    flags = oracles.two_squares_flags(limit)
    cum = np.concatenate([[0], np.cumsum(flags)])
    want = np.flatnonzero(flags)
    rng = np.random.Generator(np.random.PCG64(limit))
    edges = {e + d for e in range(0, limit + 1, 64) if e % 2**16 in (0, 64)
             for d in (-1, 0, 1)}
    xs = np.array(sorted({x for x in edges | {0, 1, limit - 1, limit}
                          | set(rng.integers(0, limit + 1, size=40).tolist())
                          if 0 <= x <= limit}))
    path = str(tmp_path / "t.sgt")
    save_cache(build_table(limit), path)

    def refuses_past_limit(t):
        with pytest.raises(OutOfRangeError):
            t.count_below(limit + 1)
        with pytest.raises(OutOfRangeError):
            t.count_below_many([limit + 1])

    for order in (xs, xs[::-1], rng.permutation(xs)):
        for kinds in ([0], [1], [2], [3], [4], [0, 1, 2, 3, 4]):
            t = build_table(limit) if source == "built" else load_cache(path)
            refuses_past_limit(t)
            for i, x in enumerate(order.tolist()):
                r = int(cum[x])
                queries = [
                    lambda: t.count_below(x) == r,
                    lambda: t.count_below_many([x, x // 2]).tolist() == [r, cum[x // 2]],
                    lambda: x == limit or not flags[x] or t.rank(x) == r,
                    lambda: r == want.size or t.element(r) == want[r],
                    lambda: np.array_equal(t.members(r), want[:r]),
                ]
                j = i % len(kinds)
                for k in kinds[j:] + kinds[:j]:
                    assert queries[k](), (limit, source, x, k)
            assert t.size == want.size
            refuses_past_limit(t)


def test_cache_roundtrip(tmp_path, table_100k):
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    loaded = load_cache(path)
    assert loaded.limit == table_100k.limit
    assert np.array_equal(loaded.members(loaded.size), table_100k.members(table_100k.size))
    # byte-identical on re-save
    path2 = str(tmp_path / "t2.sgt")
    save_cache(loaded, path2)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_cache_truncation(tmp_path, table_100k):
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[:-4])
    with pytest.raises(CorruptCacheError):
        load_cache(path)


def test_cache_bad_magic(tmp_path, table_100k):
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    data = bytearray(Path(path).read_bytes())
    data[0] = ord("X")
    Path(path).write_bytes(bytes(data))
    with pytest.raises(CorruptCacheError):
        load_cache(path)


def _offsets(data):
    """End of a v3 cache's header, and start of its bitset."""
    head = 6 + data[5] + 16
    nwords = (struct.unpack_from("<Q", data, head - 16)[0] >> 6) + 1
    return head, head + 8 * -(-nwords // 1024) + 4


def _flip(path, word, bit):
    """Flip one bit of a cache's bitset, leaving its chunk table as it is."""
    data = bytearray(Path(path).read_bytes())
    data[_offsets(data)[1] + 8 * word + bit // 8] ^= 1 << (bit % 8)
    Path(path).write_bytes(bytes(data))


def _chunk_rows(words):
    """A cache's chunk table for words: crc32 and popcount per 1024 words."""
    return np.array([[zlib.crc32(words[i : i + 1024].tobytes()),
                      sum(int(w).bit_count() for w in words[i : i + 1024])]
                     for i in range(0, words.size, 1024)], dtype="<u4")


def _reseal(path, edit, edit_chunks=None):
    """Apply edit(header, words) to a cache file, rebuild its chunk table
    (crc32 and popcount per 1024 words) from the edited words, apply
    edit_chunks(chunks) to that table, and seal it again."""
    data = bytearray(Path(path).read_bytes())
    head_len, start = _offsets(data)
    head = data[:head_len]
    words = np.frombuffer(bytes(data[start:]), dtype="<u8").copy()
    edit(head, words)
    chunks = _chunk_rows(words)
    if edit_chunks:
        edit_chunks(chunks)
    sealed = bytes(head) + chunks.tobytes()
    Path(path).write_bytes(sealed + struct.pack("<I", zlib.crc32(sealed)) + words.tobytes())


def test_cache_checksum_flip(tmp_path, table_100k):
    # a flipped chunk-table byte fails the table's own CRC at load; a
    # flipped bitset byte fails its chunk's CRC in the first query
    # reading that chunk
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    data = bytearray(Path(path).read_bytes())
    head, start = _offsets(data)
    for at, when in ((head + 3, "load"), (start + 40, "query")):
        flipped = bytearray(data)
        flipped[at] ^= 0xFF
        Path(path).write_bytes(bytes(flipped))
        with pytest.raises(CorruptCacheError, match="checksum"):
            load_cache(path).count_below(100)
        if when == "query":
            load_cache(path)
        assert main(["--cache", path, "op", "2", "5"]) == 4


def test_cache_swapped_bits(tmp_path, table_100k):
    # a set and a clear bit trade places: same popcount, still in range,
    # so only chunk 0's CRC can tell, when a query first reads it
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    data = bytearray(Path(path).read_bytes())
    first = _offsets(data)[1]  # byte holding bits 0..7: members 0 1 2 4 5
    assert data[first] & 0b1100 == 0b0100
    data[first] ^= 0b1100
    Path(path).write_bytes(bytes(data))
    table = load_cache(path)
    for _ in range(2):  # a failed check leaves the chunk unread
        with pytest.raises(CorruptCacheError, match="checksum"):
            table.contains(3)
    assert main(["--cache", path, "op", "2", "5"]) == 4


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
    assert main(["--cache", path, "op", "2", "5"]) == 4


def test_cache_count_disagrees(tmp_path, table_100k):
    path = str(tmp_path / "t.sgt")
    save_cache(table_100k, path)
    _reseal(path, lambda head, words: struct.pack_into(
        "<Q", head, len(head) - 8, table_100k.size - 1))
    with pytest.raises(CorruptCacheError, match="count"):
        load_cache(path)
    assert main(["--cache", path, "op", "2", "5"]) == 4
    # chunk popcounts that sum to the declared count but misplace one
    # member load, and fail in the first query reading either chunk
    save_cache(table_100k, path)

    def shift(chunks):
        chunks[0, 1] -= 1
        chunks[1, 1] += 1

    _reseal(path, lambda head, words: None, shift)
    with pytest.raises(CorruptCacheError, match="popcount of chunk 0"):
        load_cache(path).element(0)
    assert main(["--cache", path, "op", "2", "5"]) == 4
    # a popcount above the values its chunk covers is refused at load
    _reseal(path, lambda head, words: None, lambda chunks: chunks.__setitem__((0, 1), 2**16 + 1))
    with pytest.raises(CorruptCacheError, match="exceeds"):
        load_cache(path)


def test_cache_flip_past_the_first_chunk(tmp_path, table_1m):
    # word 3 * 1024 + 5 lies in chunk 3; chunk 0 answers, and every query
    # kind that first reaches chunk 3 raises, as does each later one
    path = str(tmp_path / "t.sgt")
    save_cache(table_1m, path)
    _flip(path, 3 * 1024 + 5, 17)
    x = 64 * (3 * 1024 + 5)
    r = table_1m.count_below(x)
    queries = [
        lambda t: t.count_below(x),
        lambda t: t.contains(x + 1),
        lambda t: t.rank(int(table_1m.element(r))),
        lambda t: t.element(r),
        lambda t: t.members(r + 1),
        lambda t: t.count_below_many([10, x]),
    ]
    for query in queries:
        t = load_cache(path)
        assert t.count_below(1000) == table_1m.count_below(1000)
        assert t.contains(5) and not t.contains(3)
        assert t.element(10) == table_1m.element(10)
        assert t.count_below_many([10, 2**16 - 1]).tolist() == table_1m.count_below_many(
            [10, 2**16 - 1]).tolist()
        for _ in range(2):
            with pytest.raises(CorruptCacheError, match="chunk 3"):
                query(t)
        assert t._known in (1024, 3 * 1024)  # chunk 3 never counts as filled
    assert main(["--cache", path, "element", "10"]) == 0
    assert main(["--cache", path, "element", str(r)]) == 4
    assert main(["--cache", path, "rank", str(int(table_1m.element(r)))]) == 4


@pytest.mark.parametrize("chunk", [0, 1])
@pytest.mark.parametrize("k", [0, 1, 62, 63])
def test_count_below_at_the_filled_edge_reads_no_unfilled_word(tmp_path, table_1m, chunk, k):
    # chunk's first word is corrupt; with the chunks before it filled, a
    # bound inside that word must fill (and so check) the chunk first
    path = str(tmp_path / "t.sgt")
    save_cache(table_1m, path)
    _flip(path, 1024 * chunk, 63 - k)
    x = 2**16 * chunk + k
    for query in (lambda t: t.count_below(x), lambda t: t.count_below_many([x])):
        t = load_cache(path)
        if chunk:
            assert t.count_below(x - k - 1) == table_1m.count_below(x - k - 1)
            assert t._known == 1024
        with pytest.raises(CorruptCacheError, match=f"chunk {chunk}"):
            query(t)


def test_cache_truncated_after_load(tmp_path, table_1m):
    path = str(tmp_path / "t.sgt")
    save_cache(table_1m, path)
    size = os.path.getsize(path)
    for cut in (size // 2, 100, 0):
        save_cache(table_1m, path)
        t = load_cache(path)
        os.truncate(path, cut)
        with pytest.raises(CorruptCacheError, match="shorter"):
            t.count_below(t.limit)
    # a table that has read every chunk no longer needs its file
    save_cache(table_1m, path)
    t = load_cache(path)
    closed = t._source.close
    assert t.size == table_1m.size and t.count_below(t.limit) == t.size
    assert not closed.alive
    os.truncate(path, 0)
    assert np.array_equal(t.members(t.size), table_1m.members(table_1m.size))


@pytest.mark.parametrize("limit, raised", [(1000, 1023), (100_000, 100_031)])
def test_cache_limit_raised_inside_the_last_word(tmp_path, limit, raised):
    # the same word count and a valid seal: the last word's bits from the
    # old limit up are clear although 1000 and 100,000 are members, so
    # the first query reading the last chunk raises
    path = str(tmp_path / "t.sgt")
    save_cache(build_table(limit), path)
    _reseal(path, lambda head, words: struct.pack_into("<Q", head, len(head) - 16, raised))
    assert is_member(limit)
    t = load_cache(path)
    assert t.limit == raised
    if limit > 2**16:
        assert t.count_below(1000) == build_table(limit).count_below(1000)
    with pytest.raises(CorruptCacheError, match=f"bit {limit} disagrees"):
        t.contains(raised - 1)
    assert main(["--cache", path, "op", "2", "5"]) == (0 if limit > 2**16 else 4)
    assert main(["--cache", path, "rank", str(raised - 2)]) == 4


@pytest.mark.parametrize("limit", [1000, 100_000])
def test_cache_member_at_the_limit_fails_the_first_read(tmp_path, limit):
    # load_cache refuses a bit at or above the limit, so the words are read
    # straight through a _CacheFile whose chunk table agrees with them: only
    # the last word's check, in the query reaching it, can catch the bit
    table = build_table(limit)
    words = table._words.copy()
    words[-1] |= np.uint64(1) << np.uint64(limit & 63)
    path = tmp_path / "words"
    path.write_bytes(words.tobytes())
    source = sqstar.ground._CacheFile(os.open(path, os.O_RDONLY), 0, _chunk_rows(words))
    t = sqstar.ground.GroundTable(limit, np.empty_like(words), table.size, source)
    if limit > 2**16:  # the chunks before the last are read and pass
        assert t.count_below(1000) == table.count_below(1000)
    with pytest.raises(CorruptCacheError, match=f"bit {limit} disagrees"):
        t.contains(limit - 1)


def test_save_of_a_loaded_table_checks_every_chunk(tmp_path, table_1m):
    path, out = str(tmp_path / "t.sgt"), tmp_path / "u.sgt"
    save_cache(table_1m, path)
    save_cache(load_cache(path), str(out))  # nothing filled before the save
    assert out.read_bytes() == Path(path).read_bytes()
    out.unlink()
    _flip(path, 15 * 1024 + 7, 0)  # last chunk
    t = load_cache(path)
    assert t.element(10) == table_1m.element(10)
    with pytest.raises(CorruptCacheError, match="chunk 15"):
        save_cache(t, str(out))
    assert not out.exists()


def test_cache_predicate_mismatch(tmp_path, table_100k):
    # a cache for any ground set other than sigma is corrupt, even with a
    # valid seal
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
    Path(path).write_bytes(b"SG")
    with pytest.raises(CorruptCacheError):
        load_cache(path)
    # good magic and version, but the file ends inside the id, limit and
    # count fields
    for cut in (7, 11, 20, 26):
        Path(path).write_bytes((b"SGT1\x03\x05sigma" + bytes(16))[:cut])
        with pytest.raises(CorruptCacheError, match="truncated header"):
            load_cache(path)


def test_cache_shrinking_after_the_length_check_is_corrupt(tmp_path, table_100k, monkeypatch):
    """A file cut between fstat and the chunk-table read passes the length
    check but reads short; without the second check the empty read would
    reach struct.unpack and raise struct.error."""
    path = str(tmp_path / "s.sgt")
    save_cache(table_100k, path)
    pread = os.pread
    calls = []

    def shrunk(fd, n, offset):  # the header reads whole, every later read is empty
        calls.append(offset)
        return pread(fd, n, offset) if len(calls) == 1 else b""

    monkeypatch.setattr(os, "pread", shrunk)
    with pytest.raises(CorruptCacheError, match="file shorter than its header declares"):
        load_cache(path)
    assert len(calls) == 3


def test_cache_declared_limit_out_of_range(tmp_path, table_100k):
    path = str(tmp_path / "t.sgt")
    for limit in (1, 2**32 + 1):
        save_cache(table_100k, path)
        _reseal(path, lambda head, words: struct.pack_into("<Q", head, len(head) - 16, limit))
        with pytest.raises(CorruptCacheError, match=f"declared limit {limit} outside"):
            load_cache(path)
        assert main(["--cache", path, "op", "2", "5"]) == 4


def test_multiplicative_closure(table_1m):
    t = table_1m
    rng = np.random.Generator(np.random.PCG64(23))
    ra = rng.integers(1, t.size, size=10**4)
    s = t.members(t.size)
    a = s[ra].astype(np.int64)
    # largest rank whose element keeps the product below the limit
    bmax = t.count_below_many((t.limit - 1) // a + 1)
    keep = bmax > 1
    rb = 1 + rng.integers(0, np.maximum(bmax - 1, 1))
    for i in np.nonzero(keep)[0]:
        p = int(a[i]) * int(s[rb[i]])
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
