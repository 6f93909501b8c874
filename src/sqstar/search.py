"""Witness search over candidate generators, verification, thresholds.

Candidates are enumerated in a canonical lexicographic order (smallest
generator tuple first, indices starting at 2 so the absorber 0 and the
identity 1 stay out unless explicitly included), and the search returns
the least witness in that order.  Candidates whose configurations leave
the value window or the table are skipped and tallied, never treated as
failures.

scan_blocks is the one candidate rule and forced_window the one forcing
loop (a refutation, then bisection below its core); hjlab's searches use
them too.  scan_blocks reads colored blocks of candidates: find_witness's
values come from the families in semigroup._Saturating, the line
searches' from projections of window vertices.  verify_witness and
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

    def check_coloring(self, coloring: Coloring) -> None:
        """ValueError unless the coloring's domain covers value_bound."""
        if self.value_bound > coloring.bound:
            raise ValueError(f"coloring bound {coloring.bound} below requested bound "
                             f"{self.value_bound}")


@dataclass
class _Report:
    """A search's outcome; the reports add what each search found."""

    status: str  # "witness" | "exhausted" | "budget"

    @property
    def found(self) -> bool:
        return self.status == "witness"


@dataclass
class SearchReport(_Report):
    witness: Optional[Witness]
    nodes: int
    skipped_out_of_range: int
    elapsed: float


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


def scan_blocks(block: Callable, node_budget: Optional[int] = None) -> tuple:
    """The one candidate rule: (status, nodes, skipped, hit, color).

    block(start, rows) colors candidates start..start+rows-1 of a canonical
    order (fewer where it ends): one column per candidate, one line per
    point, 0 for uncolorable.  Blocks take _BLOCK_ROWS rows in turn.  The
    first point that decides a candidate settles it: uncolorable skips it,
    a second color rejects it, and a candidate with neither is a witness,
    which ends the scan (hit: its column in the last block).  The status
    is "witness", else "budget" once node_budget candidates were read,
    else "exhausted".
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError("node_budget must be nonnegative")
    sizes = itertools.chain(_BLOCK_ROWS, itertools.repeat(_BLOCK_ROWS[-1]))
    nodes = skipped = 0
    while node_budget is None or nodes < node_budget:
        rows = next(sizes) if node_budget is None else min(next(sizes), node_budget - nodes)
        color = block(nodes, rows)
        got = color.shape[1]
        if not got:
            break
        bad = (color == 0) | (color != color[0])
        first = bad.argmax(axis=0), np.arange(got)
        mono = ~bad[first]
        hit = int(mono.argmax())
        read = hit + 1 if mono[hit] else got
        nodes += read
        skipped += int(np.count_nonzero(color[first][:read] == 0))
        if mono[hit]:
            return "witness", nodes, skipped, hit, int(color[0, hit])
        if got < rows:
            break
    status = "budget" if nodes == node_budget else "exhausted"
    return status, nodes, skipped, None, None


def forced_window(stages: Iterable[tuple], r: int, cap: int) -> Optional[int]:
    """The least window n with no r-coloring leaving every edge (of
    hashable vertices) non-monochromatic.

    A stage (first, last, tagged, lead) tags window last's edges with their
    least window.  Probing n runs avoiding_word (cap nodes) on those
    tagged n or less, edges stably sorted by tag, vertices numbered in
    lead's order where they appear, then the rest by first appearance in
    tagged; an edgeless window is unforced, an empty edge a ValueError.
    The edges a refutation charged alone refute its core, the least window
    (from first) holding them.  A stage refutes last, probes below its
    core and, if that is forced, bisects, each refutation lowering the
    bound to its core.
    """
    if r < 1:
        raise ValueError("need at least one color")
    for first, last, tagged, lead in stages:
        def core(n):  # None if window n is not forced
            kept = [(e, m) for e, m in tagged if m <= n]
            seen = dict.fromkeys(v for e, _ in kept for v in e)
            order = dict.fromkeys([v for v in lead if v in seen] + list(seen))
            index = dict(zip(order, itertools.count()))
            edges = [([index[v] for v in e], m) for e, m in kept]
            edges.sort(key=lambda edge: edge[1])
            word, k = avoiding_word(len(index), [e for e, _ in edges], r, cap)
            return None if word is not None else max(first, edges[k][1])
        hi = core(last)
        if hi is None:
            continue
        lo, mid = first, hi - 1  # the windows below lo are not forced
        while lo < hi:
            forced = core(mid)
            lo, hi = (mid + 1, hi) if forced is None else (lo, forced)
            mid = (lo + hi) // 2
        return hi
    return None


def find_witness(
    table: GroundTable, coloring: Coloring, spec, bounds: SearchBounds
) -> SearchReport:
    """Scan the canonical candidate order for a monochromatic configuration.

    Returns the least witness of that order; values at or above
    value_bound are uncolorable.  scan_blocks classifies the candidates:
    the family's _values runs once per block in the saturating arithmetic
    (see patterns._Family), and the block's values get their colors in
    one lookup.  The candidate generators come from valid positions, so
    they need none of config_values' checks.
    """
    bounds.check_coloring(coloring)
    t0 = time.perf_counter()
    ranges = _position_ranges(spec, bounds)
    count = math.prod(len(r) for r in ranges)
    ar = _Saturating(table)
    last = []

    def block(start, rows):
        rows = min(rows, count - start)
        if not rows:  # the order ended with the last block
            return np.zeros((0, 0), dtype=np.int32)
        cols = _block_columns(ranges, start, rows)
        vals, ok = ar.lines(spec._values(generators_from_tuple(spec, cols), ar), rows)
        last[:] = cols, vals
        return coloring.colors_of(vals, ok & (vals < bounds.value_bound))

    status, nodes, skipped, hit, color = scan_blocks(block, bounds.node_budget)
    witness = None
    if hit is not None:
        cols, vals = last
        gens = generators_from_tuple(spec, tuple(int(c[hit]) for c in cols))
        config = tuple(sorted(set(vals[:, hit].tolist())))
        witness = Witness(spec, gens, config, color, coloring.provenance, table.limit)
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

    The walk is depth-first over the tuple positions, in candidate_tuples'
    order.  Every family's values are nondecreasing in every tuple position
    (see _Family), so a candidate with a value above max_bound, or one past
    the table, has no admitted candidate componentwise above it: once the
    first candidate of a position's value leaves the window, that
    position's loop stops.  geo k=1 evaluates 47 of 57,600 candidates at 16.
    """
    bounds = SearchBounds(generator_max=max(2, max_bound), value_bound=max_bound + 1)
    ar = _Exact(table)
    ranges = _position_ranges(spec, bounds)
    least = {}

    def leaves(t):  # evaluate candidate t: True when it leaves the window
        values = set()
        try:
            for v in spec._values(generators_from_tuple(spec, t), ar):
                if not 1 <= v <= max_bound:
                    return v > max_bound
                values.add(v)
        except OutOfRangeError:
            return True
        cfg = tuple(sorted(values))
        n = max(cfg[-1], *t) if max(t) > 2 else cfg[-1]
        least[cfg] = min(n, least.get(cfg, n))
        return False

    def walk(prefix):  # the candidates from prefix: True when the first leaves
        r = ranges[len(prefix)]
        for v in r:
            t = prefix + (v,)
            if walk(t) if len(t) < len(ranges) else leaves(t):
                return v == r.start
        return False

    walk(())
    return least


def threshold(
    spec,
    r: int,
    start_bound: int,
    max_bound: int,
    table: GroundTable,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Optional[int]:
    """Least N in [start_bound, max_bound] forcing a witness in {1..N}.

    N is forced when forced_window (cap nodes a probe) finds no r-coloring
    of the values in {1..N} leaving every configuration admitted_configs
    gives the window non-monochromatic, each an edge tagged with its least
    window.  The walk bound doubles from 16 up to max_bound, one stage a
    walk, so the pruned walks cost about one walk at the answer.  Probes
    color first the ranks of 2**a, the image of (N, +) under a -> 2**a.
    """

    def stages():
        if start_bound < 1:
            raise ValueError("start_bound must be positive")
        n, walk = start_bound, min(max_bound, max(start_bound, 16))
        while n <= max_bound:
            twos = (table.count_below(1 << a) for a in range(1, (table.limit - 1).bit_length()))
            lead = list(itertools.takewhile(lambda x: x <= walk, twos))  # ranks of 2**a
            yield n, walk, admitted_configs(spec, walk, table).items(), lead
            n, walk = walk + 1, min(max_bound, 2 * walk)

    return forced_window(stages(), r, cap)
