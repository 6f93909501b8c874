"""The induced product on ranks and its algebraic law checks.

With s_n the n-th ground-set member, the product of ranks m and n is the
rank of s_m * s_n (the ground set is closed under integer products).
Rank 1 is the identity (s_1 = 1) and rank 0 absorbs (s_0 = 0).  _Exact
and _product are the one scalar arithmetic: star, power, eval_monomial
and every pattern family form a member product in Python integers,
checked against the table limit at each step, and then ask for its rank
once, so overflow stays impossible.  A block of search candidates
computes in _Saturating instead, which forms uint64 products saturated
at the limit so that none wraps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import OutOfRangeError, ResourceBudgetError
from .ground import DEFAULT_MAX_BYTES, MAX_LIMIT, GroundTable, _check_budget, _index_array

# A monomial is a sequence of (rank, exponent) pairs with exponents >= 0.
Monomial = Sequence[Tuple[int, int]]

# pairs per chunk of star_many, and entries per chunk of verify_laws' tables
_STAR_STEP = 1 << 14
# values of m per block of verify_laws' associativity check
_LAW_ROWS = 8
# verify_laws' peak bytes per first-grid entry and per left or right grid entry,
# with margin: traced peaks fit 76 and 8.2 (plus 1 MB); a block holds 105 a grid entry
_LAW_GRID_BYTES, _LAW_SIDE_BYTES = 112, 9
# peak bytes per entry (a row's value at one stream position) of _Saturating's
# lines, with margin: peak RSS grew 38 B an entry on FpF(10), 33 on FpF(12)
_LINE_BYTES = 42


def star(m: int, n: int, table: GroundTable) -> int:
    """Induced product of ranks m and n."""
    ar = _Exact(table)
    return ar.rank(ar.mul(ar.member(m), ar.member(n)))


def power(x: int, n: int, table: GroundTable) -> int:
    """n-th star-power of rank x; the 0-th power is the identity rank 1."""
    return eval_monomial([(x, n)], table)


def eval_monomial(factors: Monomial, table: GroundTable) -> int:
    """Rank of the product of element values prod s_{x_i}^{e_i}.

    Every exponent is checked first (ValueError if negative).  A factor
    of rank 0 with positive exponent then gives rank 0 without a member
    lookup; otherwise the empty monomial evaluates to the identity rank 1.
    """
    zero = False
    for x, e in factors:
        if e < 0:
            raise ValueError(f"exponent {e} for rank {x} is negative")
        if x == 0 and e:
            zero = True
    if zero:
        return 0
    ar = _Exact(table)
    return ar.rank(_product(ar, factors))


def star_many(ms, ns, table: GroundTable):
    """Vectorized star over rank arrays, broadcast against each other.

    Returns (ranks, valid) where valid marks pairs whose product stays
    below the table limit; ranks is 0 where not valid.  The members read
    are widened to uint64 once; they are below the limit, at most 2**32,
    so their products are exact.  A negative rank raises ValueError, a
    rank past the table OutOfRangeError and a non-integer rank TypeError,
    as in star.  Pairs go _STAR_STEP at a time, so no temporary is longer;
    an invalid product is ranked as 0, so the directory fills only as far
    as it must.  An empty broadcast checks its ranks but selects no member.
    """
    ms, ns = _index_array(ms), _index_array(ns)
    top = 0
    for rs in (ms, ns):  # in their own dtype: a uint64 rank past 2**63 is past the table
        if rs.size:
            if rs.min() < 0:
                raise ValueError("rank must be nonnegative")
            top = max(top, int(rs.max()) + 1)
    shape = np.broadcast(ms, ns).shape
    if top:
        table._check_rank(top - 1)  # OutOfRangeError for a rank past the table
    if 0 in shape:
        return np.zeros(shape, np.int64), np.zeros(shape, bool)
    s = table.members(top).astype(np.uint64)
    p, q = np.empty((2, min(ms.size * ns.size, _STAR_STEP)), np.uint64)  # sizes' product >= any chunk
    pairs = np.nditer([ms, ns, None, None], ["external_loop", "buffered"],
                      [["readonly"]] * 2 + [["writeonly", "allocate"]] * 2,
                      [np.intp, np.intp, np.int64, np.bool_], casting="same_kind",
                      buffersize=_STAR_STEP)
    with pairs:
        for m, n, ranks, valid in pairs:
            prod = s.take(m, out=p[: m.size], mode="clip")  # ranks checked: clip moves none
            prod *= s.take(n, out=q[: m.size], mode="clip")
            np.less(prod, table.limit, out=valid)
            prod *= valid
            ranks[...] = table.count_below_many(prod.view(np.intp))  # below 2**32: same values
        return pairs.operands[2], pairs.operands[3]


# ---------------------------------------------------------------------------
# the two forms of the arithmetic that pattern families compute in (see
# patterns._Family): member, mul, pow and rank on ground-set members, plus
# and times on values

def _pow(ar, s, e: int):
    """s**e in ar, e a Python int >= 0, by squaring: every square formed
    divides s**e, so none passes the limit unless s**e does."""
    p = None
    while e:
        if e & 1:
            p = s if p is None else ar.mul(p, s)
        e >>= 1
        if e:
            s = ar.mul(s, s)
    return 1 if p is None else p


def _product(ar, factors):
    """The member product prod s_x^e of (rank, exponent) factors in ar, e
    a Python int >= 0; a factor with exponent 0 looks up no member."""
    p = None
    for x, e in factors:
        if e:
            s = ar.member(x) if e == 1 else ar.pow(ar.member(x), e)
            p = s if p is None else ar.mul(p, s)
    return 1 if p is None else p


class _Exact:
    """One candidate's arithmetic, in Python integers.

    member is table.element and rank is table.count_below; a product or
    power at or above the table limit raises OutOfRangeError.  plus and
    times are exact.
    """

    __slots__ = ("table", "member", "rank")

    def __init__(self, table: GroundTable):
        self.table, self.member, self.rank = table, table.element, table.count_below

    def mul(self, p, q):
        p *= q
        if p >= self.table.limit:
            raise OutOfRangeError(f"product {p} exceeds table limit {self.table.limit}")
        return p

    pow = _pow
    plus = staticmethod(operator.add)
    times = staticmethod(operator.mul)


# Block values saturate here: ranks stay below 2**32, and no coloring has
# this many ranks, so a saturated value lies outside every value window.
_VALUE_CAP = 2**62 - 1


def _cap(v):
    """A Python int capped at _VALUE_CAP; a column, whose entries are
    ranks or capped values already, as it is."""
    return min(v, _VALUE_CAP) if isinstance(v, int) else v


class _Saturating:
    """The arithmetic of a block of candidates, one row each.

    Operands are columns (one entry per row) or Python integers shared by
    every row.  Members and their products are uint64, saturated at top:
    the table limit, or 2**32 - 1 for a 2**32 limit, which is no member
    (3 * 5 * 17 * 257 * 65537), so top * top never wraps.  A rank past the
    table has member top.  Ranks, and the values plus and times form from
    them, are int64, and plus and times saturate at _VALUE_CAP.

    ok holds, per row, whether _Exact would still be producing values: a
    member looked up past the table or a rank asked of a saturated
    product clears it for good.  Every power or product formed on the way
    to a value divides it, so a saturated one shows in that value's rank.
    """

    __slots__ = ("table", "top", "ok", "_s", "_past")

    def __init__(self, table: GroundTable):
        self.table = table
        self.top = min(table.limit, MAX_LIMIT - 1)
        self.ok = True
        self._s = np.empty(0, dtype=np.uint64)  # members of ranks 0.._s.size-1
        self._past = False  # whether _s ends in top, for every rank past the table

    def lines(self, stream, rows: int):
        """The values of a block's stream, one int64 line per stream
        position, and the lines of ok after each; ResourceBudgetError once
        they would need more than DEFAULT_MAX_BYTES."""
        self.ok = np.ones(rows, dtype=bool)
        values, ok = [], []
        for v in stream:
            values.append(v)
            ok.append(self.ok)
            if _LINE_BYTES * rows * len(values) > DEFAULT_MAX_BYTES:
                raise ResourceBudgetError(
                    f"a block of {rows} candidates needs over {DEFAULT_MAX_BYTES} bytes of values")
        return np.array(values, dtype=np.int64), np.array(ok)

    def member(self, x):
        x = _cap(x)
        try:
            s = self._s[np.minimum(x, self.table.size) if self._past else x]
        except IndexError:
            # rows already out of range look up rank 0: their exact stream
            # ended before this lookup, so no member is selected for them
            x = np.where(self.ok, x, 0)
            hi, size = int(np.max(x)), self.table.size
            if hi >= self._s.size:
                s = self.table.members(min(max(hi + 1, 2 * self._s.size), size))
                self._s = s.astype(np.uint64)
                if hi >= size:
                    self._s = np.append(self._s, np.uint64(self.top))
                    self._past = True
            return self.member(x)
        if self._past:
            self.ok = self.ok & (s < self.top)
        return s

    def mul(self, p, q):
        return np.minimum(p * q, self.top)

    def pow(self, s, e):
        # a member >= 2 passes 2**32 by its 33rd power
        if isinstance(e, int):
            return _pow(self, s, min(e, 64))
        p = 1  # a column of exponents: squaring, multiplying in where a bit is set
        e = np.minimum(e, 64)
        while e.any():
            p = np.where(e & 1, self.mul(p, s), p)
            e = e >> 1
            s = self.mul(s, s)
        return p

    def rank(self, p):
        self.ok = self.ok & (p < self.top)
        return self.table.count_below_many(p)

    def plus(self, a, b):
        return np.minimum(_cap(a) + _cap(b), _VALUE_CAP)

    def times(self, a, b):
        a, b = _cap(a), _cap(b)
        return np.where(a > _VALUE_CAP // np.maximum(b, 1), _VALUE_CAP, a * b)


@dataclass
class LawCheck:
    name: str
    checked: int
    skipped: int
    counterexample: Optional[tuple]

    @property
    def ok(self) -> bool:
        return self.counterexample is None


@dataclass
class LawReport:
    range_max: int
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self):
        lines = [f"laws on ranks 0..{self.range_max}:"]
        for c in self.checks:
            state = "ok" if c.ok else f"FAIL at {c.counterexample}"
            lines.append(
                f"  {c.name}: {state} ({c.checked} checked, {c.skipped} out of range)"
            )
        return "\n".join(lines)


def verify_laws(range_max: int, table: GroundTable) -> LawReport:
    """Exhaustively check semigroup laws on ranks 0..range_max.

    Laws: commutativity, identity (rank 1), absorption (rank 0),
    multiplicativity of the element map, and associativity over all
    triples whose products stay below the limit, each side evaluated once
    per distinct inner product.  Each law has one rule: the entries where
    it is defined are checked, the rest skipped (out of range), and the
    first checked entry in C order where it fails is the counterexample.
    A range whose grids would pass DEFAULT_MAX_BYTES raises
    ResourceBudgetError before they are allocated.
    """
    if range_max < 0:
        raise ValueError("range_max must be nonnegative")
    if range_max >= table.size:
        raise OutOfRangeError(
            f"table holds only {table.size} ranks, cannot check up to {range_max}"
        )
    n = range_max + 1
    _check_budget(_LAW_GRID_BYTES * n * n, DEFAULT_MAX_BYTES, table.limit, f"laws on ranks 0..{n - 1}")
    idx = np.arange(n)
    ranks, in_range = star_many(idx[:, None], idx[None, :], table)
    s = table.members(max(int(ranks.max()), range_max) + 1)
    v = s[idx].astype(np.uint64)
    prod = v[:, None] * v[None, :]

    checks = []

    def law(name, defined, holds, row=0):
        checked = int(defined.sum())
        bad = np.argwhere(defined & ~holds)
        first = (row + int(bad[0][0]), int(bad[0][1])) if bad.size else None
        checks.append(LawCheck(name, checked, defined.size - checked, first))

    # m * n is defined where it stays in range, and holds where n * m is
    # defined too and equal; identity and absorption are the rows of 1 and 0
    law("commutativity", in_range, in_range.T & (ranks == ranks.T))
    law("identity", in_range[1:2], ranks[1:2] == idx, row=1)
    law("absorption", in_range[:1], ranks[:1] == 0)
    law("multiplicativity", in_range, s[ranks] == prod)

    # associativity: star(star(m, k), j) against star(m, star(k, j)); a
    # product that leaves the table on one side only is a counterexample.
    # The screen keeps the triples with s_m * s_k * s_j below the limit.
    # Members are below 2**32, so where prod < limit the screen prod * v
    # stays below 2**64 and is exact in uint64; other entries are masked
    # out anyway.  Each side is looked up by the distinct products u, left
    # = star(u, j) and right = star(m, u) once each, as int32 ranks (all
    # below 2**31) with -1 where the product leaves the table.  Triples go
    # in blocks of _LAW_ROWS values of m, which keep C order, so the first
    # counterexample is the one a single pass over all triples would meet.
    u, at = np.unique(np.where(in_range, ranks, 0), return_inverse=True)
    _check_budget((_LAW_GRID_BYTES * n + _LAW_SIDE_BYTES * u.size) * n, DEFAULT_MAX_BYTES,
                  table.limit, f"laws on ranks 0..{n - 1}")
    at = at.reshape(n, n)

    def star_grid(ms, ns):  # star(ms[a], ns[b]), _STAR_STEP entries at a time
        out = np.empty((ms.size, ns.size), dtype=np.int32)
        step = max(1, _STAR_STEP // ns.size)
        for lo in range(0, ms.size, step):
            r, ok = star_many(ms[lo : lo + step, None], ns[None, :], table)
            out[lo : lo + step] = np.where(ok, r, -1)
        return out

    left, right = star_grid(u, idx), star_grid(idx, u)
    bad, checked3 = None, 0
    for lo in range(0, n, _LAW_ROWS):
        rows = slice(lo, lo + _LAW_ROWS)
        t_ok = in_range[rows, :, None] & in_range[None, :, :]
        t_ok &= prod[rows, :, None] * v[None, None, :] < table.limit
        block = int(t_ok.sum())
        checked3 += block
        if bad is not None or not block:
            continue
        t_ok &= left[at[rows]] != right[rows][:, at]
        if t_ok.any():
            bad = tuple((np.argwhere(t_ok)[0] + (lo, 0, 0)).tolist())
    checks.append(LawCheck("associativity", checked3, n**3 - checked3, bad))

    return LawReport(range_max, checks)
