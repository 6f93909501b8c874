"""Located words, combinatorial-line search, and the polynomial grid.

A located word is a finitely supported map from positions >= 1 to letters
in {0..q-1}; disjoint words concatenate by union, making a partial
commutative semigroup.  Projection h sends a word to the rank of
prod s_pos^letter, turning monochromatic combinatorial lines of words
into monochromatic rank configurations.

The polynomial grid X(q, N, d) stores, for each degree j = 1..d, a total
map from [N]^j to letters {1..q}.  Substitution overwrites the gamma^j
block of the degree-j component with a chosen letter; projection m folds
every letter (as a rank index) with its multiplicity.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .colorings import DEFAULT_ENUMERATION_CAP, Coloring
from .errors import DomainOverlapError, OutOfRangeError
from .ground import GroundTable
from .search import forced_window, least_monochromatic
from .semigroup import eval_monomial


# ---------------------------------------------------------------------------
# located words

@dataclass(frozen=True)
class LocatedWord:
    q: int
    letters: Tuple[Tuple[int, int], ...]  # (position, letter), position-sorted

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("alphabet size must be >= 1")
        pairs = tuple(sorted((int(p), int(a)) for p, a in self.letters))
        last = 0
        for p, a in pairs:
            if p < 1:
                raise ValueError("positions must be >= 1")
            if p == last:
                raise ValueError(f"position {p} repeated")
            if not 0 <= a < self.q:
                raise ValueError(f"letter {a} outside alphabet of size {self.q}")
            last = p
        object.__setattr__(self, "letters", pairs)

    @property
    def domain(self) -> frozenset:
        return frozenset(p for p, _ in self.letters)

    def letter_at(self, pos: int) -> Optional[int]:
        for p, a in self.letters:
            if p == pos:
                return a
        return None


def located_word(q: int, mapping) -> LocatedWord:
    """Build a word from a dict or iterable of (position, letter) pairs."""
    pairs = mapping.items() if isinstance(mapping, dict) else mapping
    return LocatedWord(q, tuple(pairs))


@dataclass(frozen=True)
class LocatedVariableWord:
    q: int
    letters: Tuple[Tuple[int, int], ...]
    variable_positions: frozenset

    def __post_init__(self):
        fixed = LocatedWord(self.q, self.letters)
        object.__setattr__(self, "letters", fixed.letters)
        var = frozenset(int(p) for p in self.variable_positions)
        if not var:
            raise ValueError("the variable must occur at least once")
        if any(p < 1 for p in var):
            raise ValueError("positions must be >= 1")
        if var & fixed.domain:
            raise ValueError("variable positions overlap fixed letters")
        object.__setattr__(self, "variable_positions", var)


def concat(w1: LocatedWord, w2: LocatedWord) -> LocatedWord:
    """Union of two words with disjoint supports."""
    if w1.q != w2.q:
        raise ValueError("alphabet sizes differ")
    overlap = w1.domain & w2.domain
    if overlap:
        raise DomainOverlapError(f"supports intersect at {sorted(overlap)}")
    return LocatedWord(w1.q, w1.letters + w2.letters)


def substitute(vw: LocatedVariableWord, s: int) -> LocatedWord:
    """Fill every variable position with the letter s."""
    if not 0 <= s < vw.q:
        raise ValueError(f"letter {s} outside alphabet of size {vw.q}")
    extra = tuple((p, s) for p in sorted(vw.variable_positions))
    return LocatedWord(vw.q, vw.letters + extra)


def h_project(w: LocatedWord, table: GroundTable) -> int:
    """Rank of prod s_pos^letter over the word's support; empty word -> 1."""
    return eval_monomial(w.letters, table)


def _projection_coloring(
    project: Callable, coloring: Coloring, table: GroundTable
) -> Callable:
    """Color objects by the numeric color of project(obj, table).

    Objects whose projection leaves the table or the coloring domain are
    reported uncolorable (None), which searches treat as skips.
    """

    def color(obj) -> Optional[int]:
        try:
            v = project(obj, table)
        except OutOfRangeError:
            return None
        if v >= coloring.bound:
            return None
        return coloring.color_of(v)

    return color


def word_coloring(coloring: Coloring, table: GroundTable) -> Callable:
    """Color words by the numeric color of their h-projection (None: skip)."""
    return _projection_coloring(h_project, coloring, table)


# ---------------------------------------------------------------------------
# combinatorial-line search over a finite window

@dataclass
class HjReport:
    status: str  # "witness" | "exhausted" | "budget"
    alpha: Optional[LocatedWord]
    gamma: Optional[tuple]
    family_set: Optional[tuple]
    color: Optional[int]
    line: Optional[tuple]
    nodes: int
    skipped: int

    @property
    def found(self) -> bool:
        return self.status == "witness"


def _subsets_lex(items: Sequence[int]) -> Iterator[tuple]:
    yield ()
    for i, x in enumerate(items):
        for rest in _subsets_lex(items[i + 1 :]):
            yield (x,) + rest


def gamma_order(n: int) -> Iterator[tuple]:
    """Nonempty subsets of {1..n}: increasing max, then lexicographic."""
    for mx in range(1, n + 1):
        for rest in _subsets_lex(tuple(range(1, mx))):
            yield rest + (mx,)


def _alpha_order(avail: tuple, q: int) -> Iterator[tuple]:
    """Partial maps on avail: by domain size, domain, then letters."""
    for size in range(len(avail) + 1):
        for dom in itertools.combinations(avail, size):
            for letters in itertools.product(range(q), repeat=size):
                yield tuple(zip(dom, letters))


def _ap_sets(window: tuple, terms: int) -> Iterator[tuple]:
    """Arithmetic progressions with `terms` entries inside a position set."""
    allowed = set(window)
    top = max(window) if window else 0
    for a in sorted(allowed):
        for d in range(1, top + 1):
            f = tuple(a + i * d for i in range(terms))
            if f[-1] > top:
                break
            if all(t in allowed for t in f):
                yield f


def hj_search(
    q: int,
    word_color: Callable,
    n: int,
    ap_k: Optional[int] = None,
    node_budget: Optional[int] = None,
) -> HjReport:
    """Search the window {1..n} for a monochromatic located line.

    Without a family: candidates are (gamma, alpha) with disjoint supports
    and the line {alpha + gamma x {s} : s in alphabet}.  With ap_k: an
    additional (ap_k+1)-term progression F disjoint from both, and the
    line {alpha + (gamma u {t}) x {s} : s in alphabet, t in F}.  The lines
    are scanned by search.least_monochromatic (status, nodes, skips).
    """
    if q < 1 or n < 1 or (ap_k is not None and ap_k < 0):
        raise ValueError("need q >= 1, n >= 1 and ap_k >= 0")
    status, hit, color, nodes, skipped = least_monochromatic(
        _hj_lines(q, n, ap_k), word_color, node_budget)
    if hit is None:
        return HjReport(status, None, None, None, None, None, nodes, skipped)
    gamma, fam, alpha_pairs, line = hit
    return HjReport(status, LocatedWord(q, alpha_pairs), gamma, fam, color, tuple(line),
                    nodes, skipped)


def _line_window(n: int, vertices: Iterable, lines: Iterable) -> tuple:
    """(n, size, edges) for forced_window: each line's points as indices
    into the vertex order."""
    index = {v: i for i, v in enumerate(vertices)}
    return n, len(index), [[index[v] for v in cand[-1]] for cand in lines]


def _hj_lines(q: int, n: int, ap_k: Optional[int]) -> Iterator[tuple]:
    """Candidate lines over {1..n} as (gamma, family set, alpha pairs, line),
    in the one canonical order that hj_search and hj_threshold both read."""
    window = tuple(range(1, n + 1))
    for gamma in gamma_order(n):
        rest = tuple(p for p in window if p not in gamma)
        fam_iter = [None] if ap_k is None else _ap_sets(rest, ap_k + 1)
        for fam in fam_iter:
            avail = rest if fam is None else tuple(p for p in rest if p not in fam)
            # the positions the variable fills: gamma, or gamma u {t} per t in F
            blocks = [gamma] if fam is None else [sorted(set(gamma) | {t}) for t in fam]
            for alpha_pairs in _alpha_order(avail, q):
                line = [LocatedWord(q, alpha_pairs + tuple((p, s) for p in block))
                        for s in range(q) for block in blocks]
                yield gamma, fam, alpha_pairs, line


def words_over(window: Sequence[int], q: int) -> Iterator[LocatedWord]:
    """Every located word with support inside the window, canonical order."""
    for pairs in _alpha_order(tuple(window), q):
        yield LocatedWord(q, pairs)


def hj_threshold(
    q: int,
    r: int,
    max_n: int,
    ap_k: Optional[int] = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Optional[int]:
    """Least window size forcing a monochromatic line for every coloring.

    n is forced when colorings.avoiding_word finds no r-coloring of the
    words over {1..n} (in words_over order) leaving every line hj_search
    scans non-monochromatic; cap bounds its nodes per window.
    """
    if ap_k is not None and ap_k < 0:
        raise ValueError("ap_k must be >= 0")
    windows = (_line_window(n, words_over(range(1, n + 1), q), _hj_lines(q, n, ap_k))
               for n in range(1, max_n + 1))
    return forced_window(windows, r, cap)


# ---------------------------------------------------------------------------
# the polynomial grid

_MAX_Q = 2**15 - 1  # letters must fit the int16 components


@functools.lru_cache
def _cells(n: int, d: int) -> tuple:
    """The grid cells as (j, multi-index) pairs, in the one order a point
    stores its letters: degree 1 first, each component row-major."""
    return tuple((j, idx) for j in range(1, d + 1)
                 for idx in itertools.product(range(1, n + 1), repeat=j))


class PhjPoint:
    """A point of the degree-d grid over window [n] with letters 1..q.

    The point is one tuple `letters`, the letter of each cell in _cells(n, d)
    order.  `components` gives component j (1-based) as a read-only int16
    array of shape (n,)*j, the letter of each j-tuple of window positions.
    """

    __slots__ = ("q", "n", "d", "letters")

    def __init__(self, q: int, n: int, d: int, components):
        if not 1 <= q <= _MAX_Q or n < 1 or d < 1:
            raise ValueError(f"need 1 <= q <= {_MAX_Q} and n, d >= 1")
        if len(components) != d:
            raise ValueError(f"need {d} components, got {len(components)}")
        letters = tuple(int(v) for j, comp in enumerate(components, start=1)
                        for v in np.reshape(comp, n**j).tolist())
        if not all(1 <= v <= q for v in letters):
            raise ValueError("letters must lie in 1..q")
        self.q, self.n, self.d, self.letters = q, n, d, letters

    @classmethod
    def _of(cls, q: int, n: int, d: int, letters: tuple) -> "PhjPoint":
        """A point from letters already in _cells(n, d) order and in 1..q."""
        point = object.__new__(cls)
        point.q, point.n, point.d, point.letters = q, n, d, letters
        return point

    def key(self) -> tuple:
        """The letters split into components, each row-major."""
        ends = list(itertools.accumulate(self.n**j for j in range(1, self.d + 1)))
        return tuple(self.letters[a:b] for a, b in zip([0] + ends, ends))

    @property
    def components(self) -> tuple:
        comps = []
        for j, block in enumerate(self.key(), start=1):
            arr = np.array(block, dtype=np.int16).reshape((self.n,) * j)
            arr.setflags(write=False)
            comps.append(arr)
        return tuple(comps)

    def __eq__(self, other):
        return (
            isinstance(other, PhjPoint)
            and (self.q, self.n, self.d, self.letters)
            == (other.q, other.n, other.d, other.letters)
        )

    def __hash__(self):
        return hash((self.q, self.n, self.d, self.letters))

    def __repr__(self):
        return f"PhjPoint(q={self.q}, n={self.n}, d={self.d}, {self.key()})"

    def to_doc(self) -> dict:
        return {"q": self.q, "n": self.n, "d": self.d,
                "components": [list(block) for block in self.key()]}

    @classmethod
    def from_doc(cls, doc: dict) -> "PhjPoint":
        return cls(doc["q"], doc["n"], doc["d"], doc["components"])


def constant_point(q: int, n: int, d: int, letter: int = 1) -> PhjPoint:
    return PhjPoint(q, n, d, [[letter] * n**j for j in range(1, d + 1)])


def phj_substitute(point: PhjPoint, gamma, xs: Sequence[int]) -> PhjPoint:
    """Overwrite each gamma^j block of component j with the letter xs[j-1]."""
    gamma = {int(t) for t in gamma}
    if not gamma:
        raise ValueError("gamma must be nonempty")
    if min(gamma) < 1 or max(gamma) > point.n:
        raise ValueError(f"gamma must lie inside 1..{point.n}")
    if len(xs) != point.d:
        raise ValueError(f"need {point.d} letters, got {len(xs)}")
    xs = [int(x) for x in xs]
    for x in xs:
        if not 1 <= x <= point.q:
            raise ValueError(f"letter {x} outside 1..{point.q}")
    letters = tuple(xs[j - 1] if gamma.issuperset(idx) else a
                    for (j, idx), a in zip(_cells(point.n, point.d), point.letters))
    return PhjPoint._of(point.q, point.n, point.d, letters)


def m_project(point: PhjPoint, table: GroundTable) -> int:
    """Rank of the product of all letters, with multiplicity, as rank indices."""
    return eval_monomial([(x, 1) for x in point.letters], table)


def point_coloring(coloring: Coloring, table: GroundTable) -> Callable:
    """Color grid points by the numeric color of their m-projection (None: skip)."""
    return _projection_coloring(m_project, coloring, table)


@dataclass
class PhjReport:
    status: str
    point: Optional[PhjPoint]
    gamma: Optional[tuple]
    color: Optional[int]
    line: Optional[tuple]
    nodes: int
    skipped: int

    @property
    def found(self) -> bool:
        return self.status == "witness"


def phj_search(
    q: int,
    k_colors: int,
    d: int,
    n: int,
    point_color: Callable,
    node_budget: Optional[int] = None,
) -> PhjReport:
    """Search the degree-d grid over {1..n} for a monochromatic line.

    Candidates are (gamma, base point) pairs; base points carry letter 1
    on every gamma^j block (substitution overwrites those blocks, so
    nothing is lost) and range over all letters elsewhere.  The line is
    the q^d substitutions of the blocks.  k_colors only documents the
    expected color count; the coloring callable is authoritative.
    """
    if not 1 <= q <= _MAX_Q or n < 1 or d < 1:
        raise ValueError(f"need 1 <= q <= {_MAX_Q} and n, d >= 1")
    status, hit, color, nodes, skipped = least_monochromatic(
        _phj_lines(q, n, d), point_color, node_budget)
    if hit is None:
        return PhjReport(status, None, None, None, None, nodes, skipped)
    gamma, base, line = hit
    return PhjReport(status, base, gamma, color, tuple(line), nodes, skipped)


def _phj_lines(q: int, n: int, d: int) -> Iterator[tuple]:
    """Candidate grid lines as (gamma, base, line), in the one canonical
    order that phj_search and phj_threshold both read."""
    alphabet = range(1, q + 1)
    for gamma in gamma_order(n):
        choices = [(1,) if set(gamma).issuperset(idx) else alphabet for _, idx in _cells(n, d)]
        for letters in itertools.product(*choices):
            base = PhjPoint._of(q, n, d, letters)
            yield gamma, base, [phj_substitute(base, gamma, xs)
                                for xs in itertools.product(alphabet, repeat=d)]


def grid_points(q: int, n: int, d: int) -> Iterator[PhjPoint]:
    """Every grid point, as itertools.product over the cells in _cells order."""
    if not 1 <= q <= _MAX_Q or n < 1 or d < 1:
        raise ValueError(f"need 1 <= q <= {_MAX_Q} and n, d >= 1")
    for letters in itertools.product(range(1, q + 1), repeat=len(_cells(n, d))):
        yield PhjPoint._of(q, n, d, letters)


def phj_threshold(
    q: int,
    r: int,
    d: int,
    max_n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Optional[int]:
    """Least window size forcing a monochromatic grid line for every coloring.

    As hj_threshold, over the grid points (vertices, in grid_points order)
    and the lines phj_search scans (edges).
    """
    windows = (_line_window(n, grid_points(q, n, d), _phj_lines(q, n, d))
               for n in range(1, max_n + 1))
    return forced_window(windows, r, cap)
