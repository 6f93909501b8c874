"""Independent brute-force oracles the tests compare against.

Nothing here goes through the package's sieve, product, or search code,
except `configs_within` (see there): membership is literal two-squares
enumeration, folds multiply members of that enumeration pairwise and
bisect for each rank, thresholds walk colorings as raw words, window
configurations are rebuilt from a member list, the line oracles
re-enumerate line sets from first principles, the candidate rule is a
plain loop over points, the candidate order is read from a family's
layout, and coloring documents are written with the json module alone.
"""

import bisect
import functools
import itertools
import json
import math

import numpy as np

from sqstar.errors import OutOfRangeError
from sqstar.patterns import generate_configuration
from sqstar.search import SearchBounds, generators_from_tuple


def two_squares_flags(limit: int) -> np.ndarray:
    """flags[n] = 1 iff n = a^2 + b^2, by enumerating all pairs."""
    flags = np.zeros(limit, dtype=np.uint8)
    amax = int(limit**0.5) + 1
    for a in range(amax):
        a2 = a * a
        if a2 >= limit:
            break
        b2 = np.arange(a, amax) ** 2
        vals = a2 + b2
        flags[vals[vals < limit]] = 1
    return flags


def members_brute(limit: int) -> np.ndarray:
    return np.flatnonzero(two_squares_flags(limit)).astype(np.uint64)


@functools.lru_cache(maxsize=None)
def _member_list(limit: int) -> list:
    return members_brute(limit).tolist()


def _member(members: list, r: int) -> int:
    if r >= len(members):
        raise OutOfRangeError(f"rank {r} past the {len(members)} members")
    return members[r]


def _rank(members: list, p: int, limit: int) -> int:
    """Rank of the member p: the number of members below it."""
    if p >= limit:
        raise OutOfRangeError(f"product {p} reaches limit {limit}")
    return bisect.bisect_left(members, p)


def fold_eval(factors, table) -> int:
    """Monomial evaluation by pairwise products over power chains only:
    the fold takes acc to the rank of s_acc * s_y, y the rank of s_x^e,
    over the brute-force members below table.limit."""
    s, limit = _member_list(table.limit), table.limit
    acc = 1
    for x, e in factors:
        if e < 0:
            raise ValueError(f"exponent {e} is negative")
        y = _rank(s, _member(s, x) ** e, limit) if e else 1
        acc = _rank(s, _member(s, acc) * _member(s, y), limit)
    return acc


def fold_star(ranks, table) -> int:
    return fold_eval([(r, 1) for r in ranks], table)


def phi(text: str, values, table) -> int:
    """An mt combination map, read from its text form (proj:I, sum,
    product, starfold or linear:C;..;C:K), applied to the block values."""
    head, *rest = text.split(":")
    if head == "proj":
        return values[int(rest[0]) - 1]
    if head == "sum":
        return sum(values)
    if head == "product":
        return math.prod(values)
    if head == "starfold":
        return fold_star(values, table)
    if head == "linear":
        coeffs = [int(c) for c in rest[0].split(";")]
        return sum(c * v for c, v in zip(coeffs, values, strict=True)) + int(rest[1])
    raise ValueError(f"unknown combination map {text!r}")


def faulty_star(limit: int, rank_shift=None, pair_fault=None):
    """The product of ranks over the brute-force members below limit, as a
    memoized mul(m, k) that gives a rank, or None where s_m * s_k reaches
    the limit.  Two kinds of seeded fault can be modelled: rank_shift
    maps a product value to an offset added to its rank (a wrong bulk
    rank), and pair_fault maps an ordered pair (m, k) to the answer it
    gets instead (a wrong product of one pair)."""
    s, rank_shift, pair_fault = _member_list(limit), rank_shift or {}, pair_fault or {}

    @functools.cache
    def mul(m: int, k: int):
        if (m, k) in pair_fault:
            return pair_fault[m, k]
        p = s[m] * s[k]
        return None if p >= limit else _rank(s, p, limit) + rank_shift.get(p, 0)

    return mul


def associativity_oracle(n: int, mul, limit: int):
    """(checked, skipped, first counterexample) of associativity on ranks
    0..n, one triple (m, k, j) at a time in C order.

    A triple is checked where mul(m, k) and mul(k, j) are both defined and
    s_m * s_k * s_j is below the limit; it fails where mul(mul(m, k), j)
    and mul(m, mul(k, j)) differ, a product leaving the table (None) on
    one side only included.
    """
    s = _member_list(limit)
    checked, first = 0, None
    for m in range(n + 1):
        for k in range(n + 1):
            mk = mul(m, k)
            if mk is None:
                continue
            for j in range(n + 1):
                if s[m] * s[k] * s[j] >= limit:
                    break  # members increase with j: every later triple is screened out too
                kj = mul(k, j)
                if kj is None:
                    continue
                checked += 1
                if first is None and mul(mk, j) != mul(m, kj):
                    first = (m, k, j)
    return checked, (n + 1) ** 3 - checked, first


def least_monochromatic(candidates, color, node_budget=None):
    """The scalar candidate rule: (status, candidate, color, nodes, skipped).

    Candidates are tuples ending in their points, read one at a time and
    one point at a time.  The first point that decides a candidate
    settles it: a point colored None (uncolorable) skips the candidate, a
    point of a second color rejects it, and a candidate with neither is a
    witness, which ends the scan.  The status is "witness", else "budget"
    once node_budget candidates were read, else "exhausted".
    """
    nodes = skipped = 0
    for cand in candidates:
        if nodes == node_budget:
            break
        nodes += 1
        colors = set()
        for point in cand[-1]:
            c = color(point)
            if c is None:
                skipped += 1
                break
            colors.add(c)
            if len(colors) > 1:
                break
        else:
            return "witness", cand, colors.pop(), nodes, skipped
    status = "budget" if nodes == node_budget else "exhausted"
    return status, None, None, nodes, skipped


def mono_configs_exist(word, configs) -> bool:
    """word[v-1] is the color of value v; any config monochromatic?"""
    for cfg in configs:
        c0 = word[cfg[0] - 1]
        if all(word[v - 1] == c0 for v in cfg[1:]):
            return True
    return False


def threshold_oracle(configs_for, r: int, start: int, stop: int):
    """Least N in [start, stop] such that every coloring word has a mono config.

    configs_for(N) must return the candidate configurations with all
    values in {1..N}.  Colorings are walked as raw tuples, no package
    coloring machinery involved.
    """
    for n in range(start, stop + 1):
        configs = [c for c in configs_for(n) if c and max(c) <= n and min(c) >= 1]
        if not configs:
            continue
        if all(
            mono_configs_exist(word, configs)
            for word in itertools.product(range(r), repeat=n)
        ):
            return n
    return None


def candidate_tuples(spec, bounds):
    """The canonical candidate order of a family within bounds, read from
    its layout: the lexicographic product of one range per position, each
    key filling its n positions.  Generator positions run from 2 (from 1
    with include_identity), auxiliary ones from 1, all to generator_max."""
    gens = range(1 if bounds.include_identity else 2, bounds.generator_max + 1)
    aux = range(1, bounds.generator_max + 1)
    return itertools.product(*[aux if kind.aux else gens
                               for _, kind, n in spec.layout for _ in range(n)])


def configs_within(spec, n: int, table):
    """Candidate configurations entirely inside {1..N}, deduplicated.

    The per-window candidate walk the package's threshold made for every
    N before it walked the candidates once; it walks candidate_tuples
    through the package's configuration generator, and cross-checks the
    single walk's per-window view (search.admitted_configs).
    """
    bounds = SearchBounds(generator_max=max(2, n), value_bound=n + 1)
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


def window_configs(family: str, params: tuple, n: int, members) -> set:
    """Configurations of brauer(k), fpf(k), deuber(m, p) or geo(k) inside {1..n}.

    Rebuilt from a sorted member list (e.g. members_brute): s_t is
    members[t] and the rank of x is the number of members below x, so the
    list must hold more than n members and cover every index used.
    Generators run over 2..max(2, n), progression parameters (geo's a, d)
    over 1..max(2, n), and a configuration counts when all its values lie
    in 1..n.
    """
    cands = window_rows(family, params, n, members)
    return {tuple(sorted(set(c))) for c in cands if all(1 <= v <= n for v in c)}


def window_rows(family: str, params: tuple, n: int, members) -> list:
    """The value list of every candidate of window_configs, in candidate
    order; fpf lists its subset products in mask order."""
    s = [int(x) for x in members]
    rank = lambda x: bisect.bisect_left(s, x)
    gens = range(2, max(2, n) + 1)
    aux = range(1, max(2, n) + 1)
    cands = []
    if family == "brauer":
        (k,) = params
        for x, z in itertools.product(gens, repeat=2):
            cands.append([x, z] + [rank(s[x] ** j * s[z]) for j in range(1, k + 1)])
    elif family == "fpf":
        (k,) = params
        for xs in itertools.product(gens, repeat=k):
            cands.append([
                rank(math.prod(s[x] for i, x in enumerate(xs) if mask >> i & 1))
                for mask in range(1, 1 << k)
            ])
    elif family == "deuber":
        m, p = params
        for xs in itertools.product(gens, repeat=m + 1):
            vals = [xs[0]]
            for j in range(1, m + 1):
                for expo in itertools.product(range(p + 1), repeat=j):
                    prod = s[xs[j]]
                    for i in range(j):
                        prod *= s[xs[i]] ** expo[i]
                    vals.append(rank(prod))
            cands.append(vals)
    elif family == "geo":
        (k,) = params
        for b, g, a, d in itertools.product(gens, gens, aux, aux):
            cands.append([
                rank(s[b] * (s[g] * s[a + i * d]) ** j)
                for i in range(k + 1)
                for j in range(k + 1)
            ])
    else:
        raise ValueError(f"no oracle for family {family!r}")
    return cands


def avoider_coloring(configs, r: int, n: int):
    """A coloring word of {1..n} with no monochromatic config, or None."""
    for word in itertools.product(range(1, r + 1), repeat=n):
        ok = True
        for cfg in configs:
            c0 = word[cfg[0] - 1]
            if all(word[v - 1] == c0 for v in cfg[1:]):
                ok = False
                break
        if ok:
            return word
    return None


def chronological_word(size: int, edges, r: int):
    """(least avoiding word or None, nodes) by plain chronological
    backtracking: vertices 0..size-1 in order, each trying colors 1 up to
    one more than the largest before it (at most r), an edge checked when
    its largest vertex is colored, one node per color tried, and a vertex
    with no color left backing up to the vertex before it."""
    closing = [[] for _ in range(size)]  # closing[v]: edges whose largest vertex is v
    for edge in edges:
        vs = set(edge)
        closing[max(vs)].append(vs - {max(vs)})
    word, nodes, v = [0] * size, 0, 0
    while 0 <= v < size:
        allowed = min(r, max(word[:v], default=0) + 1)
        while word[v] < allowed:
            word[v] += 1
            nodes += 1
            if not any(all(word[u] == word[v] for u in rest) for rest in closing[v]):
                break
        else:
            word[v] = 0
            v -= 1
            continue
        v += 1
    return (tuple(word) if v == size else None), nodes


def forced_window_oracle(stages, r: int):
    """Least window n of the stages (first, last, tagged, lead) whose edges
    tagged n or less admit no avoiding coloring, or None: one
    avoider_coloring run per window, over the window's vertices; the
    vertex order lead names cannot change the answer."""
    for first, last, tagged, _ in stages:
        for n in range(first, last + 1):
            edges = [e for e, m in tagged if m <= n]
            verts = {v: i + 1 for i, v in enumerate(sorted({v for e in edges for v in e}))}
            configs = [tuple(sorted({verts[v] for v in e})) for e in edges]
            if avoider_coloring(configs, r, len(verts)) is None:
                return n
    return None


def write_coloring(path, r: int, colors, provenance=None) -> None:
    """Write a coloring document (r, bound, colors and, if given,
    provenance) with the json module alone."""
    doc = {"r": r, "bound": len(colors), "colors": [int(c) for c in colors]}
    if provenance is not None:
        doc["provenance"] = provenance
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# located-word line oracle (independent of the hjlab module internals)

def gamma_subsets(n: int) -> list:
    """Every nonempty subset of {1..n} as a sorted tuple, by increasing
    max, then lexicographically (a prefix first) among the positions
    below it; read from the bits of 1..2^n - 1."""
    subsets = [tuple(p + 1 for p in range(n) if mask >> p & 1) for mask in range(1, 1 << n)]
    return sorted(subsets, key=lambda s: (s[-1], s[:-1]))


def all_words(n: int, q: int):
    """Every finitely supported word over {1..n} as a frozenset of pairs."""
    out = []
    for mask in itertools.product(range(q + 1), repeat=n):
        # digit 0 = absent, digit l+1 = letter l
        out.append(frozenset((p + 1, d - 1) for p, d in enumerate(mask) if d))
    return out


def all_lines(n: int, q: int):
    """Every combinatorial line over the window, as a tuple of words."""
    positions = list(range(1, n + 1))
    lines = []
    for gsize in range(1, n + 1):
        for gamma in itertools.combinations(positions, gsize):
            rest = [p for p in positions if p not in gamma]
            for asz in range(len(rest) + 1):
                for dom in itertools.combinations(rest, asz):
                    for letters in itertools.product(range(q), repeat=asz):
                        alpha = frozenset(zip(dom, letters))
                        line = tuple(
                            alpha | frozenset((p, s) for p in gamma)
                            for s in range(q)
                        )
                        lines.append(line)
    return lines


def hj_threshold_oracle(q: int, r: int, max_n: int):
    """Minimal window forcing a monochromatic line for every word coloring."""
    for n in range(1, max_n + 1):
        words = all_words(n, q)
        lines = all_lines(n, q)
        forced = True
        for colors in itertools.product(range(r), repeat=len(words)):
            cmap = dict(zip(words, colors))
            if not any(len({cmap[w] for w in line}) == 1 for line in lines):
                forced = False
                break
        if forced:
            return n
    return None


def hj_avoider_oracle(q: int, r: int, n: int):
    """A word coloring of the window with no monochromatic line, or None."""
    words = all_words(n, q)
    lines = all_lines(n, q)
    for colors in itertools.product(range(1, r + 1), repeat=len(words)):
        cmap = dict(zip(words, colors))
        if not any(len({cmap[w] for w in line}) == 1 for line in lines):
            return cmap
    return None


# ---------------------------------------------------------------------------
# polynomial grid line oracle

def grid_tuples(q: int, n: int, d: int):
    """All grid points as flat letter tuples (component j has n^j cells)."""
    total = sum(n**j for j in range(1, d + 1))
    return list(itertools.product(range(1, q + 1), repeat=total))


def grid_lines(q: int, n: int, d: int):
    """All substitution lines over the grid, as tuples of flat points."""
    sizes = [n**j for j in range(1, d + 1)]
    offsets = [0]
    for s in sizes[:-1]:
        offsets.append(offsets[-1] + s)
    cell_index = {}
    for j in range(1, d + 1):
        for flat_i, tup in enumerate(
            itertools.product(range(1, n + 1), repeat=j)
        ):
            cell_index[(j, tup)] = offsets[j - 1] + flat_i
    lines = []
    points = grid_tuples(q, n, d)
    for gsize in range(1, n + 1):
        for gamma in itertools.combinations(range(1, n + 1), gsize):
            gset = set(gamma)
            blocks = [
                [
                    cell_index[(j, tup)]
                    for tup in itertools.product(gamma, repeat=j)
                ]
                for j in range(1, d + 1)
            ]
            seen = set()
            for pt in points:
                line = []
                for xs in itertools.product(range(1, q + 1), repeat=d):
                    v = list(pt)
                    for j, block in enumerate(blocks):
                        for ci in block:
                            v[ci] = xs[j]
                    line.append(tuple(v))
                key = tuple(sorted(set(line)))
                if key not in seen:
                    seen.add(key)
                    lines.append(tuple(line))
    return lines


def phj_threshold_oracle(q: int, r: int, d: int, max_n: int):
    for n in range(1, max_n + 1):
        points = grid_tuples(q, n, d)
        lines = grid_lines(q, n, d)
        forced = True
        for colors in itertools.product(range(r), repeat=len(points)):
            cmap = dict(zip(points, colors))
            if not any(len({cmap[p] for p in line}) == 1 for line in lines):
                forced = False
                break
        if forced:
            return n
    return None
