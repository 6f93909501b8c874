"""Ground set: membership, sieved tables, rank/unrank, binary caches.

The ground set is the set of sums of two integer squares (0 and 1
included).  A GroundTable stores the members below a limit as a bitset
with a popcount rank directory (Jacobson, FOCS 1989; Vigna, WEA 2008).
Both the directory and the sorted members used for unranking are filled
on demand, as prefixes up to the largest bound or rank asked for;
everything upstream (the induced product, pattern generation, searches)
is expressed through its rank and unrank queries.
"""

from __future__ import annotations

import math
import operator
import os
import struct
import weakref
import zlib

import numpy as np

from .errors import (
    CorruptCacheError,
    NotMemberError,
    OutOfRangeError,
    ResourceBudgetError,
)

# The one memory budget: every guard (_check_budget) refuses a request whose
# estimated peak would pass this many bytes, reading it at call time.
DEFAULT_MAX_BYTES = 2**31

# The member array is uint32, so values, and hence the limit, stop at 2**32.
MAX_LIMIT = 2**32

_MAGIC = b"SGT1"
_VERSION = 3
# the ground-set id every cache carries; any other id is corrupt
_GROUND_ID = b"sigma"

# Words per chunk (2^16 bits) of the rank directory and the cache checks, and
# per step of a member fill, whose scratch (one bool byte per bit plus an
# int64 per member found) stays under a megabyte.
_CHUNK_WORDS = 2**10

# Words per select block (2^12 bits): the member buffer is filled through
# the block holding the largest rank asked for.
_BLOCK_WORDS = 2**6

# Values sieved at a time by build_table, one bool byte each; a multiple of
# 64, so a segment and the half its evens are copied from start on a byte.
_SEGMENT = 2**20

# Pairs (u, v) the sieve expands at a time: its int64 temporaries (64 KiB)
# stay under glibc's 128 KiB mmap threshold, so no batch faults in pages.
_PAIRS = 2**13

_LOW = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)  # _LOW[b]: bits below b


def is_member(n: int) -> bool:
    """Whether n is a sum of two squares, by trial-division factoring.

    Uses the classical criterion: n >= 0 qualifies iff every prime
    p = 3 (mod 4) appears in n to an even power.  Independent of any
    table, so it has no range ceiling beyond factoring cost.
    """
    if n < 0:
        raise ValueError("membership is defined for nonnegative integers")
    if n < 2:
        return True
    m = n
    while m % 2 == 0:
        m //= 2
    p = 3
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if p % 4 == 3 and e % 2 == 1:
                return False
        p += 2
    # leftover m is prime or 1
    return not (m > 1 and m % 4 == 3)


def _pronic_floor(x: np.ndarray) -> np.ndarray:
    """Elementwise the largest v >= -1 with v(v+1) <= x: 2v+1 <= isqrt(4x+1)."""
    # the float root floors exactly: it is correctly rounded and 4x+1 < 2**52
    return (np.sqrt(np.maximum(4 * x + 1, 0)).astype(np.int64) - 1) // 2


def _sieve(limit: int) -> np.ndarray:
    """Bitset words of [0, limit) with bit n set iff n = a^2 + b^2.

    Sieves one bool segment of _SEGMENT values at a time by residue class
    (after Atkin and Bernstein, Math. Comp. 2004), then packs it straight
    into the words.  No member is 3 (mod 4), and an odd one is
    4u^2 + (2v+1)^2, so it is marked at m = (n-1)/4 = u^2 + v(v+1) in odd,
    the view of the segment's values 1 (mod 4): each u gives a row of v,
    and the rows are expanded at most _PAIRS pairs at a time (a longer row
    alone).  An even n is a member iff n/2 is, as 2(x^2 + y^2) =
    (x+y)^2 + (x-y)^2, so evens are copied from the words already packed
    (n/2 < lo, as no segment is longer than its start); segment 0 doubles
    its own prefix instead.
    """
    words = np.zeros((limit >> 6) + 1, dtype="<u8")
    data = words.view(np.uint8)
    seg = np.empty(min(_SEGMENT, limit), dtype=bool)
    for lo in range(0, limit, _SEGMENT):
        n = min(_SEGMENT, limit - lo)
        first, last = lo // 4, (lo + n - 2) // 4
        s = seg[:n]
        s[:] = False
        odd = s[1::4]
        u2 = np.arange(math.isqrt(last) + 1, dtype=np.int64) ** 2
        v0 = _pronic_floor(first - 1 - u2) + 1
        count = _pronic_floor(last - u2) + 1 - v0
        starts = np.concatenate(([0], np.cumsum(count)))  # pairs before row u
        shift, base = v0 - starts[:-1], u2 - first  # v = pair + shift, m - first = v(v+1) + base
        i = 0
        while i < count.size:
            j = max(int(np.searchsorted(starts, starts[i] + _PAIRS, "right")) - 1, i + 1)
            v = np.arange(starts[i], starts[j])
            v += np.repeat(shift[i:j], count[i:j])
            idx = v + 1
            idx *= v
            idx += np.repeat(base[i:j], count[i:j])
            odd[idx] = True
            i = j
        if lo:
            s[0::2] = np.unpackbits(data[lo >> 4 :], count=(n + 1) // 2, bitorder="little").view(bool)
        else:
            s[0], k = True, 1
            while 2 * k < n:
                s[2 * k : 4 * k : 2] = s[k : min(2 * k, (n + 1) // 2)]
                k *= 2
        packed = np.packbits(s, bitorder="little")
        data[lo >> 3 : (lo >> 3) + packed.size] = packed
    return words


def _index_array(xs) -> np.ndarray:
    """xs as an array, refusing non-integer values as operator.index does."""
    arr = np.asarray(xs)
    if arr.size and arr.dtype.kind not in "biu":
        raise TypeError(f"{arr.dtype} values cannot be interpreted as integers")
    return arr


class GroundTable:
    """Ground-set members below a limit, with rank and unrank queries.

    Bit n of the little-endian uint64 bitset is set iff n is a member.
    The bitset has limit // 64 + 1 words, so the bound x = limit falls
    inside it and needs no special case; bits at or above the limit are
    zero.  size, below 2**32, is the bitset's popcount, supplied by build_table
    from its budget check or load_cache from the declared count.  Entry w of
    the uint32 rank directory counts the members in the words before w, so
    counting members below x (an int, or int64 in bulk) is one directory read
    plus one masked popcount.  It is reserved unset and filled as a prefix,
    one chunk of _CHUNK_WORDS words (2^16 values) and one cumsum per
    extension, up to the chunk holding the largest bound asked for.

    A table loaded from a cache starts with an unread bitset: each chunk
    is read from the file and checked against the cache's chunk table
    (CRC and popcount) in the directory fill that first reaches it, so no
    query reads a word outside the filled prefix.  A built table has every
    word present from the start.

    Members (select, i.e. unrank) are read from one uint32 buffer that
    holds a slot per member but is filled only on demand: as a prefix, up
    to the block of _BLOCK_WORDS words (2^12 values) holding the largest
    rank asked for.  Pages of either never filled are never touched, so
    queries near the bottom of the range cost little beyond what they reach.
    members(n) is a read-only view of it, members(size) of every member.
    """

    __slots__ = ("limit", "_words", "_source", "_prefix", "_known", "_cover",
                 "_members", "_filled", "_ready")

    def __init__(self, limit: int, words: np.ndarray, size: int, source: _CacheFile | None = None):
        if size >= 2**32:
            raise ValueError(f"{size} members overflow the uint32 rank directory")
        self.limit = int(limit)
        words = np.ascontiguousarray(words, dtype="<u8")
        if words.size != (self.limit >> 6) + 1:
            raise ValueError(f"a table with limit {limit} needs {(self.limit >> 6) + 1} words")
        words.setflags(write=False)
        self._words = words
        self._source = source  # the cache file the unfilled words are read from, if any
        self._prefix = np.empty(words.size + 1, dtype=np.uint32)
        self._prefix[0] = 0
        self._known = 0  # directory entries 0.._known are filled; none past them is read
        self._cover = 0  # count_below and contains read the filled part below this
        self._members = np.empty(size, dtype=np.uint32)
        self._members.setflags(write=False)
        self._filled = 0  # words whose members are in the buffer
        self._ready = 0  # members in the buffer: _prefix[_filled]

    @property
    def size(self) -> int:
        """Number of members below the limit."""
        return self._members.size

    def _fill(self, w: int) -> None:
        """Fill the rank directory through the chunk of words holding word w.

        A loaded table first reads those words from its cache, and checks
        them before the filled entries count as known.
        """
        lo, prefix, words, source = self._known, self._prefix, self._words, self._source
        end = min((w // _CHUNK_WORDS + 1) * _CHUNK_WORDS, words.size)
        if source is not None:
            source.read(words, lo, end)
        prefix[lo + 1 : end + 1] = np.bitwise_count(words[lo:end])
        np.cumsum(prefix[lo : end + 1], dtype=np.uint32, out=prefix[lo : end + 1])
        if source is not None:
            source.check(words, prefix, lo, end, self.limit)
            if end == words.size:
                source.close()
                self._source = None
        self._known = end
        self._cover = min(64 * end, self.limit + 1)

    def _check_rank(self, n: int) -> None:
        """Raise unless 0 <= n < size."""
        if n < 0:
            raise ValueError("rank must be nonnegative")
        if n >= self.size:
            raise OutOfRangeError(f"rank {n} exceeds table size {self.size} (limit {self.limit})")

    def _select_through(self, n: int) -> None:
        """Fill the member buffer through the select block holding rank n."""
        self._check_rank(n)
        prefix, out = self._prefix, self._members
        while prefix.item(self._known) <= n:
            self._fill(self._known)
        # the word holding rank n is the last w with prefix[w] <= n
        w = int(np.searchsorted(prefix[: self._known + 1], n, side="right")) - 1
        end = min((w // _BLOCK_WORDS + 1) * _BLOCK_WORDS, self._words.size)
        data = self._words.view(np.uint8)
        out.setflags(write=True)
        try:
            for lo in range(self._filled, end, _CHUNK_WORDS):
                bits = np.unpackbits(data[8 * lo : 8 * min(lo + _CHUNK_WORDS, end)], bitorder="little")
                idx = np.flatnonzero(bits.view(bool))
                pos = prefix.item(lo)
                np.add(idx, 64 * lo, out=out[pos : pos + idx.size], casting="unsafe")
        finally:
            out.setflags(write=False)
        self._filled = end
        self._ready = prefix.item(end)

    def element(self, n: int) -> int:
        """Member with rank n (the n-th smallest, counting from 0)."""
        if 0 <= n < self._ready:
            return self._members.item(n)
        self._select_through(n)
        return self._members.item(n)

    def members(self, n: int) -> np.ndarray:
        """Read-only uint32 view of the n smallest members (ranks 0..n-1)."""
        if n < 0:
            raise ValueError("member count must be nonnegative")
        if n > self._ready:
            self._select_through(n - 1)
        return self._members[:n]

    def contains(self, s: int) -> bool:
        """Table-backed membership test for 0 <= s < limit."""
        s = operator.index(s)
        if s < 0:
            raise ValueError("membership query requires a nonnegative integer")
        if s >= self.limit:
            raise OutOfRangeError(f"value {s} not covered by table limit {self.limit}")
        if s >= self._cover:
            self._fill(s >> 6)
        return bool((self._words.item(s >> 6) >> (s & 63)) & 1)

    def rank(self, s: int) -> int:
        """Rank of the member s; raises NotMemberError for non-members."""
        if not self.contains(s):
            raise NotMemberError(f"{s} is not in the ground set")
        return self.count_below(s)

    def count_below(self, x: int) -> int:
        """Number of members strictly below x, for 0 <= x <= limit."""
        x = operator.index(x)
        if x < 0:
            raise ValueError("count_below requires a nonnegative bound")
        if x >= self._cover:
            if x > self.limit:
                raise OutOfRangeError(f"bound {x} exceeds table limit {self.limit}")
            self._fill(x >> 6)
        i = x >> 6
        low = self._words.item(i) & ((1 << (x & 63)) - 1)
        return self._prefix.item(i) + low.bit_count()

    def count_below_many(self, xs) -> np.ndarray:
        """Vectorized count_below over an array of bounds, as int64 counts."""
        arr = _index_array(xs)
        if arr.size:
            top = int(arr.max())
            if top > self.limit or (arr.dtype.kind == "i" and arr.min() < 0):
                raise OutOfRangeError("bounds must lie in [0, limit]")
            if top >= self._cover:
                self._fill(top >> 6)
        x = arr.astype(np.intp, copy=False)  # checked bounds, cast once for both gathers
        i = x >> 6
        low = np.bitwise_count(self._words.take(i) & _LOW.take(x & 63))
        return np.add(self._prefix.take(i), low, dtype=np.int64)

    def __repr__(self):
        return f"GroundTable(limit={self.limit}, size={self.size})"


def _check_budget(need: int, who: str, what: str) -> None:
    """The one memory guard: refuse a need past DEFAULT_MAX_BYTES, read at call time."""
    if need > DEFAULT_MAX_BYTES:
        raise ResourceBudgetError(
            f"{who} needs ~{need} bytes for {what}, budget is {DEFAULT_MAX_BYTES}")


def build_table(limit: int) -> GroundTable:
    """Sieve all members below limit into a GroundTable.

    The build has two peaks, and each is checked against DEFAULT_MAX_BYTES
    (raise it for a limit near MAX_LIMIT) before its allocation.  The
    segmented sieve holds the bitset (limit/8 bytes), one bool segment of
    at most _SEGMENT values and the unpacked half its evens are copied
    from (its packed copy comes after that is freed), three int64
    temporaries of _PAIRS pairs, and ten int64 arrays of one entry per u
    (rows and _pronic_floor temporaries).  The table then
    holds the bitset and the uint32 rank directory (13 bytes per word of
    64 candidates, with the byte a word takes while it is filled), the
    member buffer (4 bytes per member) and the chunked select scratch;
    the directory and buffer are reserved after the check, sized from
    the build's one popcount, and filled only as queries reach them.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    nwords = (limit >> 6) + 1
    seg = min(_SEGMENT, limit)
    sieve = 8 * nwords + seg + seg // 2 + 24 * min(_PAIRS, seg) + 80 * (math.isqrt(limit // 4) + 1)
    _check_budget(sieve, f"limit {limit}", "the sieve")
    if limit > MAX_LIMIT:
        raise ValueError(f"limit {limit} above {MAX_LIMIT}: uint32 members would overflow")
    words = _sieve(limit)
    count = int(np.bitwise_count(words).sum())
    bits = 64 * _CHUNK_WORDS
    scratch = bits + 8 * min(count, bits)
    _check_budget(13 * nwords + 4 + 4 * count + scratch, f"limit {limit}", "the table")
    return GroundTable(limit, words, count)


def _chunk_table(words: np.ndarray) -> np.ndarray:
    """Per chunk of words: its zlib.crc32 and its popcount, as u32 pairs."""
    starts = range(0, words.size, _CHUNK_WORDS)
    table = np.empty((len(starts), 2), dtype="<u4")
    table[:, 0] = [zlib.crc32(words[lo : lo + _CHUNK_WORDS]) for lo in starts]
    table[:, 1] = np.add.reduceat(np.bitwise_count(words), np.asarray(starts), dtype=np.int64)
    return table


def save_cache(table: GroundTable, path: str) -> None:
    """Write a table to a binary cache file (format version 3).

    Layout: magic "SGT1", version byte 3, the length-prefixed ground-set
    id "sigma", limit and member count as little-endian u64; the chunk
    table, one little-endian u32 zlib.crc32 and one u32 popcount per chunk
    of _CHUNK_WORDS bitset words, followed by a u32 zlib.crc32 over the
    header and the chunk table; then the bitset as limit // 64 + 1
    little-endian u64 words.  A table loaded from a cache has each of its
    chunks read and checked first, so a corrupt chunk raises
    CorruptCacheError before anything is written.
    """
    if table._source is not None:
        table._fill(table._words.size - 1)
    head = (
        _MAGIC
        + struct.pack("<BB", _VERSION, len(_GROUND_ID))
        + _GROUND_ID
        + struct.pack("<QQ", table.limit, table.size)
    )
    chunks = _chunk_table(table._words).tobytes()
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(chunks)
        fh.write(struct.pack("<I", zlib.crc32(chunks, zlib.crc32(head))))
        fh.write(table._words)


class _CacheFile:
    """The bitset of an open cache file, read and checked a chunk at a time."""

    def __init__(self, fd: int, offset: int, chunks: np.ndarray):
        self.fd = fd
        self.offset = offset  # file position of word 0
        self.chunks = chunks  # the chunk table: crc, popcount
        self.close = weakref.finalize(self, os.close, fd)

    def read(self, words: np.ndarray, lo: int, end: int) -> None:
        """Read words[lo:end] from the file, unchecked."""
        words.setflags(write=True)
        try:
            got = os.preadv(self.fd, [words[lo:end]], self.offset + 8 * lo)
        finally:
            words.setflags(write=False)
        if got != 8 * (end - lo):
            raise CorruptCacheError("file shorter than its header declares")

    def check(self, words: np.ndarray, prefix: np.ndarray, lo: int, end: int, limit: int) -> None:
        """Check words[lo:end], whole chunks from lo, against the chunk table.

        prefix holds the rank directory filled from them.  The last chunk
        also has each bit of its last word checked against membership
        below the limit, which catches a member at or above the limit and
        a declared limit raised inside that word.
        """
        first = lo // _CHUNK_WORDS
        for c, at in enumerate(range(lo, end, _CHUNK_WORDS), first):
            if zlib.crc32(words[at : at + _CHUNK_WORDS]) != self.chunks[c, 0]:
                raise CorruptCacheError(f"checksum mismatch in chunk {c}")
        sums = np.diff(prefix[np.r_[lo:end:_CHUNK_WORDS, end]])
        bad = np.flatnonzero(sums != self.chunks[first : first + sums.size, 1])
        if bad.size:
            raise CorruptCacheError(f"popcount of chunk {first + bad[0]} does not match the chunk table")
        if end == words.size:
            last, base = words.item(-1), 64 * (end - 1)
            for n in range(base, base + 64):
                if (last >> (n - base)) & 1 != (n < limit and is_member(n)):
                    raise CorruptCacheError(f"bit {n} disagrees with membership")


def load_cache(path: str) -> GroundTable:
    """Open and validate a binary cache written by save_cache.

    Checked here: magic, version, the ground-set id, the declared limit's
    range, the file length, the chunk table's CRC, each chunk's popcount
    against the values it covers below the limit, the declared count
    against the sum of those popcounts, and no bit at or above the limit
    in the last word.  The bitset itself is not read: the table reads each
    chunk from the open file and checks its CRC and popcount (and, for the
    last chunk, its last word against is_member) in the query that first
    reaches it.  Any failure, at load or at a chunk's first use, raises
    CorruptCacheError.  A cache of another format version is refused with
    a message to rebuild it.
    """
    with open(path, "rb") as fh:
        fd = fh.fileno()
        size = os.fstat(fd).st_size
        head = os.pread(fd, 6 + 255 + 16, 0)
        if len(head) < 6:
            raise CorruptCacheError("file too short for header")
        if head[:4] != _MAGIC:
            raise CorruptCacheError("bad magic")
        if head[4] != _VERSION:
            raise CorruptCacheError(
                f"unsupported cache format version {head[4]} (this build reads "
                f"version {_VERSION}); rebuild the cache with build-cache"
            )
        if len(head) < 6 + head[5] + 16:
            raise CorruptCacheError("truncated header")
        head = head[: 6 + head[5] + 16]
        if head[6:-16] != _GROUND_ID:
            raise CorruptCacheError(
                f"ground-set id {head[6:-16]!r} is not {_GROUND_ID!r}"
            )
        limit, count = struct.unpack_from("<QQ", head, len(head) - 16)
        if not 2 <= limit <= MAX_LIMIT:
            raise CorruptCacheError(f"declared limit {limit} outside [2, {MAX_LIMIT}]")
        nwords = (limit >> 6) + 1
        nchunks = -(-nwords // _CHUNK_WORDS)
        offset = len(head) + 8 * nchunks + 4
        expected = offset + 8 * nwords
        if size != expected:
            raise CorruptCacheError(
                f"file length {size} does not match declared limit (expected {expected})"
            )
        raw = os.pread(fd, 8 * nchunks + 4, len(head))
        last = os.pread(fd, 8, expected - 8)
        if len(raw) != 8 * nchunks + 4 or len(last) != 8:
            raise CorruptCacheError("file shorter than its header declares")
        if zlib.crc32(raw[:-4], zlib.crc32(head)) != struct.unpack("<I", raw[-4:])[0]:
            raise CorruptCacheError("chunk table checksum mismatch")
        chunks = np.frombuffer(raw, dtype="<u4", count=2 * nchunks).reshape(nchunks, 2)
        room = np.minimum(limit - 64 * _CHUNK_WORDS * np.arange(nchunks, dtype=np.int64),
                          64 * _CHUNK_WORDS)
        if (chunks[:, 1] > room).any():
            raise CorruptCacheError("a chunk's popcount exceeds the values it covers")
        if int(chunks[:, 1].sum(dtype=np.int64)) != count:
            raise CorruptCacheError(f"declared count {count} does not match the chunk table")
        if int.from_bytes(last, "little") >> (limit & 63):
            raise CorruptCacheError("member at or above declared limit")
        source = _CacheFile(os.dup(fd), offset, chunks)
    return GroundTable(int(limit), np.empty(nwords, dtype="<u8"), int(count), source)
