"""Witness search over candidate generators, verification, thresholds.

Candidates are enumerated in a canonical lexicographic order (smallest
generator tuple first, indices starting at 2 so the absorber 0 and the
identity 1 stay out unless explicitly included), and the search scans
them serially, so it returns the least witness in that order.  Candidates
whose configurations leave the value window or the table are skipped and
tallied, never treated as failures.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .colorings import Coloring, enumerate_all
from .errors import MalformedWitnessError, OutOfDomainError, OutOfRangeError
from .ground import GroundTable
from .patterns import Witness, config_values, generate_configuration


@dataclass(frozen=True)
class SearchBounds:
    """Window for a witness search.

    generator_max caps every generator index; value_bound is exclusive and
    must not exceed the coloring's domain; node_budget caps the number of
    candidates examined (None = unbounded); min_value discards candidates
    producing any value below it; include_identity admits generator index 1.
    """

    generator_max: int
    value_bound: int
    node_budget: Optional[int] = None
    min_value: int = 0
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


def candidate_tuples(spec, bounds: SearchBounds) -> Iterator[tuple]:
    """Canonical generator-tuple order for a family within bounds.

    The tuple lays out the family's generators in its layout order, each
    key filling its n positions.  Generator positions run from 2 (from 1
    with include_identity); auxiliary positions (progression parameters,
    exponents) run from 1.  Every position ends at generator_max.
    """
    lo = 1 if bounds.include_identity else 2
    gens = range(lo, bounds.generator_max + 1)
    aux = range(1, bounds.generator_max + 1)
    return itertools.product(
        *(aux if kind.aux else gens for _, kind, n in spec.layout for _ in range(n))
    )


def generators_from_tuple(spec, tup: tuple) -> dict:
    gens = {}
    i = 0
    for key, kind, n in spec.layout:
        gens[key] = kind.take(tup, i, n)
        i += n
    return gens


def _check_candidate(spec, tup, table, coloring, bounds) -> tuple:
    """Evaluate one candidate: ("hit", color), ("no",) or ("skip",).

    Values stream in the family's canonical order and the color check
    aborts on the first mismatch, so most rejections cost a few counting
    queries.  Any out-of-window or out-of-table value skips the candidate.
    """
    gens = generators_from_tuple(spec, tup)
    color = None
    try:
        for v in config_values(spec, gens, table):
            if v < bounds.min_value or v >= bounds.value_bound:
                return ("skip",)
            c = coloring.color_of(v)
            if color is None:
                color = c
            elif c != color:
                return ("no",)
    except OutOfRangeError:
        return ("skip",)
    if color is None:
        return ("skip",)
    return ("hit", color)


def find_witness(
    table: GroundTable, coloring: Coloring, spec, bounds: SearchBounds
) -> SearchReport:
    """Scan the canonical candidate order for a monochromatic configuration.

    Returns the least witness of that order.  The status is "budget" once
    node_budget candidates were examined without a hit, "exhausted" when
    the order ran out before that.
    """
    if bounds.value_bound > coloring.bound:
        raise ValueError(
            f"value_bound {bounds.value_bound} exceeds coloring bound {coloring.bound}"
        )
    t0 = time.perf_counter()
    candidates = candidate_tuples(spec, bounds)
    if bounds.node_budget is not None:
        candidates = itertools.islice(candidates, bounds.node_budget)
    nodes = 0
    skipped = 0
    witness = None
    for tup in candidates:
        nodes += 1
        res = _check_candidate(spec, tup, table, coloring, bounds)
        if res[0] == "skip":
            skipped += 1
        elif res[0] == "hit":
            gens = generators_from_tuple(spec, tup)
            config = generate_configuration(spec, gens, table)
            witness = Witness(spec, gens, config, res[1], coloring.provenance, table.limit)
            break
    if witness is not None:
        status = "witness"
    elif nodes == bounds.node_budget:
        status = "budget"
    else:
        status = "exhausted"
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
    try:
        return all(coloring.color_of(v) == w.color for v in w.configuration)
    except OutOfDomainError as exc:  # pragma: no cover - guarded above
        raise MalformedWitnessError(str(exc)) from exc


def threshold(
    spec,
    r: int,
    start_bound: int,
    max_bound: int,
    table: GroundTable,
    cap: Optional[int] = None,
) -> Optional[int]:
    """Least N in [start_bound, max_bound] forcing a witness in {1..N}.

    For each N, every r-coloring of {1..N} is enumerated and checked
    against the precomputed list of candidate configurations whose
    generators and values all lie in {1..N}.  Intended for oracle-grade
    tiny parameters; the enumeration cap guards against blowups.
    """
    if r < 1:
        raise ValueError("need at least one color")
    if start_bound < 1:
        raise ValueError("start_bound must be positive")
    for n in range(start_bound, max_bound + 1):
        configs = _configs_within(spec, n, table)
        if not configs:
            continue
        kwargs = {} if cap is None else {"cap": cap}
        forced = True
        for coloring in enumerate_all(r, n, **kwargs):
            # assignment index v-1 stands for the value v in {1..N}
            word = coloring.assignment
            if not any(_mono_under(word, cfg) for cfg in configs):
                forced = False
                break
        if forced:
            return n
    return None


def _mono_under(word, cfg) -> bool:
    c0 = word[cfg[0] - 1]
    for v in cfg[1:]:
        if word[v - 1] != c0:
            return False
    return True


def _configs_within(spec, n: int, table: GroundTable) -> list:
    """Candidate configurations entirely inside {1..N}, deduplicated."""
    bounds = SearchBounds(
        generator_max=max(2, n), value_bound=n + 1, min_value=1
    )
    seen = set()
    out = []
    for tup in candidate_tuples(spec, bounds):
        gens = generators_from_tuple(spec, tup)
        try:
            cfg = generate_configuration(spec, gens, table)
        except (OutOfRangeError, ValueError):
            continue
        if cfg and cfg[0] >= 1 and cfg[-1] <= n and cfg not in seen:
            seen.add(cfg)
            out.append(cfg)
    return out
