"""The induced product on ranks and its algebraic law checks.

With s_n the n-th ground-set member, the product of ranks m and n is the
rank of s_m * s_n (the ground set is closed under integer products).
Rank 1 is the identity (s_1 = 1) and rank 0 absorbs (s_0 = 0).  Repeated
products and monomials reduce to one exact integer product followed by a
single counting query, which is also how overflow stays impossible: the
product is formed in Python integers and checked against the table limit
before any array arithmetic sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import OutOfRangeError
from .ground import GroundTable

# A monomial is a sequence of (rank, exponent) pairs with exponents >= 0.
Monomial = Sequence[Tuple[int, int]]


def star(m: int, n: int, table: GroundTable) -> int:
    """Induced product of ranks m and n."""
    p = table.element(m) * table.element(n)
    if p >= table.limit:
        raise OutOfRangeError(
            f"product {table.element(m)}*{table.element(n)} = {p} "
            f"exceeds table limit {table.limit}"
        )
    return table.count_below(p)


def power(x: int, n: int, table: GroundTable) -> int:
    """n-th star-power of rank x; the 0-th power is the identity rank 1."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    if n == 0:
        return 1
    s = table.element(x)
    if s == 0:
        return 0
    if s == 1:
        return 1
    p = 1
    for _ in range(n):
        p *= s
        if p >= table.limit:
            raise OutOfRangeError(
                f"power {s}^{n} exceeds table limit {table.limit}"
            )
    return table.count_below(p)


def eval_monomial(factors: Monomial, table: GroundTable) -> int:
    """Rank of the product of element values prod s_{x_i}^{e_i}.

    The empty monomial evaluates to the identity rank 1.  A factor with
    element value 0 and positive exponent short-circuits to rank 0.
    """
    p = 1
    for x, e in factors:
        if e < 0:
            raise ValueError(f"exponent {e} for rank {x} is negative")
        if e == 0:
            continue
        s = table.element(x)
        if s == 0:
            return 0
        if s == 1:
            continue
        for _ in range(e):
            p *= s
            if p >= table.limit:
                raise OutOfRangeError(
                    f"monomial value passes table limit {table.limit} at factor "
                    f"(rank {x}, element {s})"
                )
    return table.count_below(p)


def star_many(ms, ns, table: GroundTable):
    """Vectorized star over rank arrays, broadcast against each other.

    Returns (ranks, valid) where valid marks pairs whose product stays
    below the table limit; ranks is 0 where not valid.  Members are below
    the limit, which is at most 2**32, so their products are exact in
    uint64.  A negative rank raises ValueError and a rank past the table
    OutOfRangeError, as in star.
    """
    ms = np.asarray(ms, dtype=np.int64)
    ns = np.asarray(ns, dtype=np.int64)
    for rs in (ms, ns):
        if rs.size and rs.min() < 0:
            raise ValueError("rank must be nonnegative")
        if rs.size and rs.max() >= table.size:
            raise OutOfRangeError(
                f"rank {int(rs.max())} exceeds table size {table.size} (limit {table.limit})"
            )
    prod = table.elements[ms].astype(np.uint64) * table.elements[ns]
    valid = prod < table.limit
    ranks = np.zeros(prod.shape, dtype=np.int64)
    if valid.any():
        ranks[valid] = table.count_below_many(prod[valid])
    return ranks, valid


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
    multiplicativity of the underlying element map, and associativity
    over all triples whose intermediate products stay below the limit.
    Pairs or triples that leave the table are skipped and counted.
    """
    if range_max < 0:
        raise ValueError("range_max must be nonnegative")
    if range_max >= table.size:
        raise OutOfRangeError(
            f"table holds only {table.size} ranks, cannot check up to {range_max}"
        )
    idx = np.arange(range_max + 1)
    v = table.elements[idx].astype(np.uint64)
    n = int(v.size)
    ranks, in_range = star_many(idx[:, None], idx[None, :], table)
    prod = v[:, None] * v[None, :]

    checks = []

    # commutativity: the integer product grid is symmetric by construction,
    # so compare the rank grid against its transpose
    comm_pairs = int(in_range.sum())
    bad = None
    if not np.array_equal(ranks, ranks.T):
        i, j = np.argwhere((ranks != ranks.T) & in_range & in_range.T)[0]
        bad = (int(i), int(j))
    checks.append(LawCheck("commutativity", comm_pairs, n * n - comm_pairs, bad))

    # identity: 1 * m = m for every m in range (requires range_max >= 1)
    bad = None
    checked = 0
    if n >= 2:
        row = ranks[1]
        good = in_range[1]
        checked = int(good.sum())
        mism = np.flatnonzero(good & (row != idx))
        if mism.size:
            bad = (1, int(mism[0]))
    checks.append(LawCheck("identity", checked, n - checked if n >= 2 else 0, bad))

    # absorption: 0 * m = 0
    bad = None
    row = ranks[0]
    good = in_range[0]
    mism = np.flatnonzero(good & (row != 0))
    if mism.size:
        bad = (0, int(mism[0]))
    checks.append(LawCheck("absorption", int(good.sum()), n - int(good.sum()), bad))

    # multiplicativity: element(star(m, n)) equals s_m * s_n wherever defined
    bad = None
    mism = np.argwhere(in_range & (table.elements[ranks] != prod))
    if mism.size:
        bad = (int(mism[0][0]), int(mism[0][1]))
    checks.append(LawCheck("multiplicativity", comm_pairs, n * n - comm_pairs, bad))

    # associativity: star(star(m, k), j) against star(m, star(k, j)); a
    # product that leaves the table on one side only is a counterexample.
    # The screen keeps the triples with s_m * s_k * s_j below the limit.
    # Members are below 2**32, so where prod < limit the screen prod * v
    # stays below 2**64 and is exact in uint64; other entries are masked
    # out anyway
    t_ok = in_range[:, :, None] & in_range[None, :, :]
    t_ok &= prod[:, :, None] * v[None, None, :] < table.limit
    bad = None
    checked3 = int(t_ok.sum())
    if checked3:
        m, k, j = np.nonzero(t_ok)
        lhs, lhs_ok = star_many(ranks[m, k], j, table)
        rhs, rhs_ok = star_many(m, ranks[k, j], table)
        mism = np.flatnonzero((lhs != rhs) | (lhs_ok != rhs_ok))
        if mism.size:
            i = mism[0]
            bad = (int(m[i]), int(k[i]), int(j[i]))
    checks.append(LawCheck("associativity", checked3, n**3 - checked3, bad))

    return LawReport(range_max, checks)
