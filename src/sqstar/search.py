"""Witness search over candidate generators, verification, thresholds.

Candidates are enumerated in a canonical lexicographic order (smallest
generator tuple first, indices starting at 2 so the absorber 0 and the
identity 1 stay out unless explicitly included), and the search returns
the least witness in that order.  Candidates whose configurations leave
the value window or the table are skipped and tallied, never treated as
failures.

least_monochromatic is the one candidate rule and forced_window the one
forcing loop; the word and grid searches of hjlab use them too.
find_witness applies the rule to blocks of candidates, whose values the
families compute in semigroup._Saturating; verify_witness and
admitted_configs evaluate one candidate at a time in semigroup._Exact.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .colorings import DEFAULT_ENUMERATION_CAP, Coloring, avoiding_word
from .errors import MalformedWitnessError, OutOfRangeError
from .ground import GroundTable
from .patterns import Witness, generate_configuration
from .semigroup import _Exact, _Saturating

# Rows of find_witness' successive blocks.  The first already holds a
# whole 121-candidate space, so such a search pays one block's fixed
# cost, and the rows double up to a bounded scratch.
_BLOCK_ROWS = (128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class SearchBounds:
    """Window for a witness search.

    generator_max caps every generator index; value_bound is exclusive and
    must not exceed the coloring's domain; node_budget caps the number of
    candidates examined (None = unbounded); include_identity admits
    generator index 1.
    """

    generator_max: int
    value_bound: int
    node_budget: Optional[int] = None
    include_identity: bool = False

    def __post_init__(self):
        if self.generator_max < 2:
            raise ValueError("generator_max must be at least 2")
        if self.value_bound < 1:
            raise ValueError("value_bound must be positive")
        if self.node_budget is not None and self.node_budget < 0:
            raise ValueError("node_budget must be nonnegative")


@dataclass
class SearchReport:
    status: str  # "witness" | "exhausted" | "budget"
    witness: Optional[Witness]
    nodes: int
    skipped_out_of_range: int
    elapsed: float

    @property
    def found(self) -> bool:
        return self.status == "witness"


def _position_ranges(spec, bounds: SearchBounds) -> list:
    """The range of each candidate-tuple position, in layout order.

    Generator positions run from 2 (from 1 with include_identity);
    auxiliary positions (progression parameters, exponents) run from 1.
    Every position ends at generator_max.
    """
    lo = 1 if bounds.include_identity else 2
    gens = range(lo, bounds.generator_max + 1)
    aux = range(1, bounds.generator_max + 1)
    return [aux if kind.aux else gens for _, kind, n in spec.layout for _ in range(n)]


def candidate_tuples(spec, bounds: SearchBounds) -> Iterator[tuple]:
    """Canonical generator-tuple order for a family within bounds: the
    product of the position ranges, each key filling its n positions in
    the family's layout order."""
    return itertools.product(*_position_ranges(spec, bounds))


def generators_from_tuple(spec, tup: tuple) -> dict:
    gens = {}
    i = 0
    for key, kind, n in spec.layout:
        gens[key] = kind.take(tup, i, n)
        i += n
    return gens


def _block_columns(ranges: list, start: int, rows: int) -> list:
    """Positions of candidate_tuples' entries start..start+rows-1, one
    int64 column per position, by mixed-radix division of their indices."""
    idx = np.arange(start, start + rows, dtype=np.int64)
    cols = []
    for r in reversed(ranges[1:]):
        idx, digit = np.divmod(idx, len(r))
        cols.append(digit + r.start)
    cols.append(idx + ranges[0].start)
    return cols[::-1]


def least_monochromatic(
    candidates: Iterable[tuple], color: Callable, node_budget: Optional[int] = None
) -> tuple:
    """Scan candidates, each a tuple ending in its points, for the first
    monochromatic one: (status, candidate, color, nodes, skipped).

    The first point that decides a candidate settles it: an uncolorable
    point (color None, or OutOfRangeError while the points are produced)
    skips it, a second color rejects it.  The status is "witness", else
    "budget" once node_budget candidates were read, else "exhausted".
    """
    if node_budget is not None:
        if node_budget < 0:
            raise ValueError("node_budget must be nonnegative")
        candidates = itertools.islice(candidates, node_budget)
    nodes = skipped = 0
    for cand in candidates:
        nodes += 1
        first = c = None
        try:
            for x in cand[-1]:
                c = color(x)
                if c is None or (first is not None and c != first):
                    break
                first = c
        except OutOfRangeError:
            c = None
        if c is None:
            skipped += 1
        elif c == first:
            return "witness", cand, c, nodes, skipped
    status = "budget" if nodes == node_budget else "exhausted"
    return status, None, None, nodes, skipped


def forced_window(windows: Iterable[tuple], r: int, cap: int) -> Optional[int]:
    """The first n of the (n, size, edges) windows at which colorings.avoiding_word
    finds no r-coloring of vertices 0..size-1 leaving every edge non-monochromatic."""
    if r < 1:
        raise ValueError("need at least one color")
    for n, size, edges in windows:
        if avoiding_word(size, edges, r, cap) is None:
            return n
    return None


def find_witness(
    table: GroundTable, coloring: Coloring, spec, bounds: SearchBounds
) -> SearchReport:
    """Scan the canonical candidate order for a monochromatic configuration.

    Returns the least witness of that order; values at or above
    value_bound are uncolorable.  Status and counts as least_monochromatic,
    whose rule classifies the candidates a block at a time: the family's
    _values runs once per block of _BLOCK_ROWS rows in the saturating
    arithmetic (see patterns._Family), the block's values get their
    colors in one lookup, and the least witness row ends the scan.  The
    candidate generators come from valid positions, so they need none of
    config_values' checks.
    """
    if bounds.value_bound > coloring.bound:
        raise ValueError(
            f"value_bound {bounds.value_bound} exceeds coloring bound {coloring.bound}"
        )
    t0 = time.perf_counter()
    ranges = _position_ranges(spec, bounds)
    budget = math.prod(len(r) for r in ranges)
    if bounds.node_budget is not None:
        budget = min(budget, bounds.node_budget)
    ar = _Saturating(table)
    sizes = itertools.chain(_BLOCK_ROWS, itertools.repeat(_BLOCK_ROWS[-1]))
    nodes = skipped = 0
    witness = None
    while nodes < budget and witness is None:
        rows = min(next(sizes), budget - nodes)
        cols = _block_columns(ranges, nodes, rows)
        vals, ok = ar.lines(spec._values(generators_from_tuple(spec, cols), ar), rows)
        ok &= vals < bounds.value_bound
        color = coloring.assignment[np.where(ok, vals, 0)]
        # the first point that decides a row: uncolorable skips it, a
        # second color rejects it, and a row with none is a witness
        bad = ~ok | (color != color[0])
        first = bad.argmax(axis=0), np.arange(rows)
        skip = ~ok[first]
        mono = ~bad[first]
        hit = int(mono.argmax())
        if mono[hit]:
            rows = hit + 1  # the scan ends at the least witness
            gens = generators_from_tuple(spec, tuple(int(c[hit]) for c in cols))
            config = tuple(sorted(set(vals[:, hit].tolist())))
            witness = Witness(spec, gens, config, int(color[0, hit]),
                              coloring.provenance, table.limit)
        nodes += rows
        skipped += int(skip[:rows].sum())
    status = ("witness" if witness else "budget" if nodes == bounds.node_budget
              else "exhausted")
    return SearchReport(status, witness, nodes, skipped, time.perf_counter() - t0)


def verify_witness(w: Witness, coloring: Coloring, table: GroundTable) -> bool:
    """Re-derive a witness's configuration and check its coloring claim.

    Regeneration goes through the patterns module only; none of the
    search pruning machinery is involved.  Structural inconsistencies
    raise MalformedWitnessError; a table too small for the generators
    raises OutOfRangeError.
    """
    if not isinstance(w.color, int) or not (1 <= w.color <= coloring.r):
        raise MalformedWitnessError(
            f"color {w.color} outside 1..{coloring.r}"
        )
    if any(v >= coloring.bound or v < 0 for v in w.configuration):
        raise MalformedWitnessError(
            f"configuration values must lie below the coloring bound {coloring.bound}"
        )
    try:
        regen = generate_configuration(w.spec, w.generators, table)
    except ValueError as exc:
        raise MalformedWitnessError(f"generators do not fit the spec: {exc}") from exc
    if regen != tuple(w.configuration):
        return False
    return all(coloring.color_of(v) == w.color for v in w.configuration)


def admitted_configs(spec, max_bound: int, table: GroundTable) -> dict:
    """Configurations inside {1..max_bound}, each with the least window admitting it.

    The window {1..N} admits a candidate's configuration when its values
    all lie in 1..N and its generator positions in 1..max(2, N).  One walk
    over candidate_tuples at generator_max = max(2, max_bound) finds them
    all, dropping a candidate at its first value outside 1..max_bound.
    Keys are sorted.

    Every family's values are nondecreasing in every tuple position (see
    _Family), so a candidate with a value above max_bound, or one past the
    table, has no admitted candidate componentwise above it.  The walk then
    skips the rest of candidate_tuples' order that keeps its positions
    before q and is at least its value at q, q being its last position
    above its minimum: geo k=1 evaluates 47 of 57,600 candidates at 16.
    """
    bounds = SearchBounds(generator_max=max(2, max_bound), value_bound=max_bound + 1)
    ar = _Exact(table)
    ranges = _position_ranges(spec, bounds)
    lo = [r.start for r in ranges]
    hi = [r.stop - 1 for r in ranges]
    tup = list(lo)
    least = {}
    while True:
        t = tuple(tup)
        values = set()
        jump = False
        try:
            for v in spec._values(generators_from_tuple(spec, t), ar):
                if not 1 <= v <= max_bound:
                    jump = v > max_bound
                    break
                values.add(v)
            else:
                cfg = tuple(sorted(values))
                n = max(cfg[-1], *t) if max(t) > 2 else cfg[-1]
                least[cfg] = min(n, least.get(cfg, n))
        except OutOfRangeError:
            jump = True
        # odometer step: the last position, or on a jump the one before q
        p = len(tup) - 1
        if jump:
            while p >= 0 and tup[p] == lo[p]:
                p -= 1
            p -= 1
        while p >= 0 and tup[p] == hi[p]:
            p -= 1
        if p < 0:
            return least
        tup[p] += 1
        tup[p + 1:] = lo[p + 1:]


def threshold(
    spec,
    r: int,
    start_bound: int,
    max_bound: int,
    table: GroundTable,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Optional[int]:
    """Least N in [start_bound, max_bound] forcing a witness in {1..N}.

    N is forced when colorings.avoiding_word (at most cap nodes a window)
    finds no r-coloring of {1..N} leaving every configuration
    admitted_configs gives the window non-monochromatic; its avoiding word
    for N-1 certifies N-1.  The walk bound doubles from 16 up to
    max_bound, so the walks cost about one walk at the answer, and each
    walk evaluates only the candidates its pruning leaves.
    """

    def windows():
        if start_bound < 1:
            raise ValueError("start_bound must be positive")
        n, walk = start_bound, min(max_bound, max(start_bound, 16))
        while n <= max_bound:
            least = admitted_configs(spec, walk, table)
            for n in range(n, walk + 1):  # vertex v-1 stands for the value v
                yield n, n, [[v - 1 for v in cfg] for cfg, m in least.items() if m <= n]
            n, walk = walk + 1, min(max_bound, 2 * walk)

    return forced_window(windows(), r, cap)
