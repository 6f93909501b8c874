"""Ground set: membership, sieved tables, rank/unrank, binary caches.

The ground set is the set of sums of two integer squares (0 and 1
included).  A GroundTable stores the members below a limit as a bitset
with a popcount rank directory (Jacobson, FOCS 1989; Vigna, WEA 2008)
plus the sorted member array for unranking; everything upstream (the
induced product, pattern generation, searches) is expressed through its
rank and unrank queries.
"""

from __future__ import annotations

import math
import operator
import os
import struct
import zlib

import numpy as np

from .errors import (
    CorruptCacheError,
    NotMemberError,
    OutOfRangeError,
    ResourceBudgetError,
)

# Refuse builds whose working set would exceed this many bytes (see
# build_table for the estimate).
DEFAULT_MAX_BYTES = 2**31

# The member array is uint32, so values, and hence the limit, stop at 2**32.
MAX_LIMIT = 2**32

_MAGIC = b"SGT1"
_VERSION = 2
# the ground-set id every cache carries; any other id is corrupt
_GROUND_ID = b"sigma"

# Bits unpacked at a time while filling the member array; small enough
# that the scratch (one bool byte per bit plus an int64 per member found)
# stays under a megabyte.
_SELECT_CHUNK = 2**16


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


def _two_squares_flags(limit: int) -> np.ndarray:
    """Bool flags for [0, limit): mark a^2 + b^2 for every a <= b."""
    flags = np.zeros(limit, dtype=bool)
    squares = np.arange(math.isqrt(limit - 1) + 1, dtype=np.int64) ** 2
    for a in range(squares.size):
        a2 = int(squares[a])
        bmax = math.isqrt(limit - 1 - a2)
        if bmax < a:
            break
        flags[squares[a : bmax + 1] + a2] = True
    return flags


def _select(words: np.ndarray, count: int) -> np.ndarray:
    """Positions of the set bits of a little-endian bitset, as uint32."""
    out = np.empty(count, dtype=np.uint32)
    data = words.view(np.uint8)
    step = _SELECT_CHUNK // 8
    pos = 0
    for lo in range(0, data.size, step):
        bits = np.unpackbits(data[lo : lo + step], bitorder="little").view(bool)
        idx = np.flatnonzero(bits)
        np.add(idx, 8 * lo, out=out[pos : pos + idx.size], casting="unsafe")
        pos += idx.size
    return out


class GroundTable:
    """Ground-set members below a limit, with rank and unrank queries.

    Bit n of the little-endian uint64 bitset is set iff n is a member.
    The bitset has limit // 64 + 1 words, so the bound x = limit falls
    inside it and needs no special case; bits at or above the limit are
    zero.  The rank directory holds the popcount of all words before each
    word, so counting members below x is one directory read plus one
    masked popcount.  elements is a read-only uint32 array of the sorted
    members (select, i.e. unrank, in O(1)); ranks are positions within it.
    """

    __slots__ = ("limit", "elements", "_words", "_prefix")

    def __init__(self, limit: int, words: np.ndarray):
        self.limit = int(limit)
        words = np.ascontiguousarray(words, dtype="<u8")
        if words.size != (self.limit >> 6) + 1:
            raise ValueError(f"a table with limit {limit} needs {(self.limit >> 6) + 1} words")
        words.setflags(write=False)
        self._words = words
        prefix = np.zeros(words.size + 1, dtype=np.int64)
        np.cumsum(np.bitwise_count(words), dtype=np.int64, out=prefix[1:])
        prefix.setflags(write=False)
        self._prefix = prefix
        el = _select(words, int(prefix[-1]))
        el.setflags(write=False)
        self.elements = el

    @property
    def size(self) -> int:
        """Number of members below the limit."""
        return int(self._prefix[-1])

    def element(self, n: int) -> int:
        """Member with rank n (the n-th smallest, counting from 0)."""
        if n < 0:
            raise ValueError("rank must be nonnegative")
        if n >= self.elements.size:
            raise OutOfRangeError(
                f"rank {n} exceeds table size {self.elements.size} (limit {self.limit})"
            )
        return self.elements.item(n)

    def _bit(self, s: int) -> int:
        s = operator.index(s)
        if s < 0:
            raise ValueError("membership query requires a nonnegative integer")
        if s >= self.limit:
            raise OutOfRangeError(f"value {s} not covered by table limit {self.limit}")
        return (self._words.item(s >> 6) >> (s & 63)) & 1

    def rank(self, s: int) -> int:
        """Rank of the member s; raises NotMemberError for non-members."""
        if not self._bit(s):
            raise NotMemberError(f"{s} is not in the ground set")
        return self.count_below(s)

    def count_below(self, x: int) -> int:
        """Number of members strictly below x, for 0 <= x <= limit."""
        x = operator.index(x)
        if x < 0:
            raise ValueError("count_below requires a nonnegative bound")
        if x > self.limit:
            raise OutOfRangeError(f"bound {x} exceeds table limit {self.limit}")
        i = x >> 6
        low = self._words.item(i) & ((1 << (x & 63)) - 1)
        return self._prefix.item(i) + low.bit_count()

    def count_below_many(self, xs) -> np.ndarray:
        """Vectorized count_below over an array of bounds."""
        arr = np.asarray(xs)
        if arr.size and (arr.min() < 0 or int(arr.max()) > self.limit):
            raise OutOfRangeError("bounds must lie in [0, limit]")
        x = arr.astype(np.uint64, copy=False)
        i = x >> np.uint64(6)
        mask = (np.uint64(1) << (x & np.uint64(63))) - np.uint64(1)
        return self._prefix[i] + np.bitwise_count(self._words[i] & mask)

    def contains(self, s: int) -> bool:
        """Table-backed membership test for 0 <= s < limit."""
        return bool(self._bit(s))

    def __repr__(self):
        return f"GroundTable(limit={self.limit}, size={self.size})"


def _check_budget(need: int, max_bytes: int, limit: int, stage: str) -> None:
    if need > max_bytes:
        raise ResourceBudgetError(
            f"limit {limit} needs ~{need} bytes for the {stage}, budget is {max_bytes}"
        )


def build_table(
    limit: int,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> GroundTable:
    """Sieve all members below limit into a GroundTable.

    The build has two peaks, and each is checked against max_bytes before
    its allocation.  The sieve holds one bool flag per candidate plus the
    packed bitset (limit/8 bytes).  Once the flags are freed, the table
    holds the bitset, the rank directory (8 bytes per 64 candidates) and
    4 bytes per member, plus the chunked select scratch.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    nwords = (limit >> 6) + 1
    sieve = limit + 8 * nwords + 16 * (math.isqrt(limit) + 1)
    _check_budget(sieve, max_bytes, limit, "sieve")
    if limit > MAX_LIMIT:
        raise ValueError(f"limit {limit} above {MAX_LIMIT}: uint32 members would overflow")
    packed = np.packbits(_two_squares_flags(limit), bitorder="little")
    words = np.zeros(nwords, dtype="<u8")
    words.view(np.uint8)[: packed.size] = packed
    del packed
    count = int(np.bitwise_count(words).sum())
    scratch = _SELECT_CHUNK + 8 * min(count, _SELECT_CHUNK)
    _check_budget(16 * nwords + 4 * count + scratch, max_bytes, limit, "table")
    return GroundTable(limit, words)


def save_cache(table: GroundTable, path: str) -> None:
    """Write a table to a binary cache file (format version 2).

    Layout: magic "SGT1", version byte 2, the length-prefixed ground-set
    id "sigma", limit and member count as little-endian u64, the bitset as
    limit // 64 + 1 little-endian u64 words, and a trailing little-endian
    u32 zlib.crc32 over every preceding byte.
    """
    head = (
        _MAGIC
        + struct.pack("<BB", _VERSION, len(_GROUND_ID))
        + _GROUND_ID
        + struct.pack("<QQ", table.limit, table.size)
    )
    crc = zlib.crc32(table._words, zlib.crc32(head))
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(table._words)
        fh.write(struct.pack("<I", crc))


def load_cache(path: str) -> GroundTable:
    """Load and validate a binary cache written by save_cache.

    Every structural property is checked: magic, version, declared
    length versus file size, the CRC, no bit at or above the declared
    limit, and the declared count against the bitset's popcount.  Any
    failure, a ground-set id other than "sigma" included, raises
    CorruptCacheError.  The rank directory and member array are rebuilt
    from the bitset.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(6)
        if len(head) < 6:
            raise CorruptCacheError("file too short for header")
        if head[:4] != _MAGIC:
            raise CorruptCacheError("bad magic")
        if head[4] != _VERSION:
            raise CorruptCacheError(
                f"unsupported cache format version {head[4]} (this build reads "
                f"version {_VERSION}); rebuild the cache with build-cache"
            )
        head += fh.read(head[5] + 16)
        if len(head) < 6 + head[5] + 16:
            raise CorruptCacheError("truncated header")
        if head[6:-16] != _GROUND_ID:
            raise CorruptCacheError(
                f"ground-set id {head[6:-16]!r} is not {_GROUND_ID!r}"
            )
        limit, count = struct.unpack_from("<QQ", head, len(head) - 16)
        if not 2 <= limit <= MAX_LIMIT:
            raise CorruptCacheError(f"declared limit {limit} outside [2, {MAX_LIMIT}]")
        nwords = (limit >> 6) + 1
        expected = len(head) + 8 * nwords + 4
        if size != expected:
            raise CorruptCacheError(
                f"file length {size} does not match declared limit (expected {expected})"
            )
        words = np.empty(nwords, dtype="<u8")
        got = fh.readinto(words)
        tail = fh.read(4)
    if got != 8 * nwords or len(tail) != 4:
        raise CorruptCacheError("file shorter than its header declares")
    if zlib.crc32(words, zlib.crc32(head)) != struct.unpack("<I", tail)[0]:
        raise CorruptCacheError("checksum mismatch")
    if int(words[-1]) >> (limit & 63):
        raise CorruptCacheError("member at or above declared limit")
    if int(np.bitwise_count(words).sum()) != count:
        raise CorruptCacheError(f"declared count {count} does not match the bitset")
    return GroundTable(int(limit), words)
