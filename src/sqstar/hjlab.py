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

import collections
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .colorings import DEFAULT_ENUMERATION_CAP, Coloring
from .errors import DomainOverlapError
from .ground import GroundTable
from .search import forced_window, scan_blocks
from .semigroup import _Saturating, eval_monomial


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


def word_coloring(coloring: Coloring, table: GroundTable) -> Callable:
    """The coloring hj_search and phj_search read: color(vertices) gives
    each of a window's Vertices the color of its projection (h for a word,
    m for a grid point), or 0 where the projection leaves the table or
    the coloring domain.  The vertices are ranked in one _Saturating
    product of their factors, padded with (0, 0), afresh on every call."""

    def color(vertices: Vertices) -> np.ndarray:
        rows = len(vertices.factors)
        cols = max(map(len, vertices.factors), default=0)
        pairs = [f + [(0, 0)] * (cols - len(f)) for f in vertices.factors]
        ar = _Saturating(table)
        p = np.ones(rows, dtype=np.uint64)
        for x, e in np.array(pairs, dtype=np.int64).reshape(rows, cols, 2).transpose(1, 2, 0):
            p = ar.mul(p, ar.pow(ar.member(x), e))
        v = ar.rank(p)
        ok = ar.ok & (v < coloring.bound)
        return np.where(ok, coloring.assignment[np.where(ok, v, 0)], 0)

    return color


point_coloring = word_coloring


class Vertices(NamedTuple):
    """A run of a window's vertices, as a coloring reads them.

    vertices holds their letter keys: a word's position-sorted (position,
    letter) pairs, a grid point's letters.  factors holds their
    projections: vertex i projects to the rank of the product of s_x ** e
    over the (x, e) pairs of the list factors[i].
    """

    vertices: list
    factors: list


class _Window:
    """The lines of one hj or phj window, filled as a prefix on demand.

    lines() yields the window's lines in the canonical order, each as
    (group, point keys); a group is the report data that a run of lines
    shares and their points do not show (gamma, and the family set), one
    object for the run.  Line i's group is groups[i] and its points are
    edges[i], indices into vertices, the point keys in order of first
    appearance; monomial(key) gives a vertex's factors.
    """

    def __init__(self, lines: Callable, width: int, monomial: Callable):
        self._lines, self._width, self._monomial = lines, width, monomial
        self._clear()

    def _clear(self) -> None:
        self._source, self._index = self._lines(), {}
        self.vertices, self._factors, self.groups = [], [], []
        self.edges = np.zeros((0, self._width), dtype=np.int32)

    def fill(self, count: Optional[int] = None) -> None:
        """Fill the first count lines, or every line for None.  A fill cut
        short by an exception empties the window."""
        start = len(self.edges)
        if count is not None and count <= start:
            return
        try:
            index, rows = self._index, []
            more = None if count is None else count - start
            for group, keys in itertools.islice(self._source, more):
                self.groups.append(group)
                rows.append([index.setdefault(k, len(index)) for k in keys])
            new = list(index)[len(self.vertices):]
            self._factors += map(self._monomial, new)
            self.vertices += new
            self.edges = np.concatenate(
                [self.edges, np.array(rows, dtype=np.int32).reshape(-1, self._width)])
        except BaseException:
            self._clear()
            raise

    def part(self, lo: int, hi: int) -> Vertices:
        """Vertices lo..hi-1 of the filled lines."""
        return Vertices(self.vertices[lo:hi], self._factors[lo:hi])

    def search(self, color: Callable, node_budget: Optional[int]) -> tuple:
        """search.scan_blocks over the lines, color coloring each vertex
        once, with the first block that reads it: (status, nodes, skipped,
        the hit line's group and point keys, its color)."""
        colors = np.zeros(0, dtype=np.int64)

        def block(start, rows):
            nonlocal colors
            self.fill(start + rows)
            edges = self.edges[start:start + rows].T
            lo, hi = colors.size, int(edges.max(initial=-1)) + 1
            if hi > lo:
                colors = np.concatenate([colors, color(self.part(lo, hi))])
            return colors[edges]

        status, nodes, skipped, hit, c = scan_blocks(block, node_budget)
        if hit is None:
            return status, nodes, skipped, None, None, None
        line = [self.vertices[v] for v in self.edges[nodes - 1]]
        return status, nodes, skipped, self.groups[nodes - 1], line, c

    def hypergraph(self, keys: Iterator) -> tuple:
        """(size, edges) for forced_window: the vertex count of keys, and
        every line's points as indices into the order of keys."""
        index = {k: i for i, k in enumerate(keys)}
        self.fill()
        order = np.array([index[k] for k in self.vertices], dtype=np.int64)
        return len(index), order[self.edges].tolist()


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
    line {alpha + (gamma u {t}) x {s} : s in alphabet, t in F}.  The
    window's lines are read in blocks by search.scan_blocks (status,
    nodes, skips).  word_color, a callable over the window's Vertices
    such as word_coloring returns, colors each word once, with the first
    block that reads it.  Only the hit line's words are built.
    """
    if q < 1 or n < 1 or (ap_k is not None and ap_k < 0):
        raise ValueError("need q >= 1, n >= 1 and ap_k >= 0")
    status, nodes, skipped, group, line, color = _hj_window(q, n, ap_k).search(
        word_color, node_budget)
    if group is None:
        return HjReport(status, None, None, None, None, None, nodes, skipped)
    gamma, fam = group
    variable = set(gamma) if fam is None else {*gamma, fam[0]}
    alpha = LocatedWord(q, tuple(pair for pair in line[0] if pair[0] not in variable))
    return HjReport(status, alpha, gamma, fam, color,
                    tuple(LocatedWord(q, key) for key in line), nodes, skipped)


@functools.lru_cache(maxsize=16)
def _hj_window(q: int, n: int, ap_k: Optional[int]) -> _Window:
    """The lines of hj_search and hj_threshold.  A word's factors are its
    (position, letter) pairs with a nonzero letter, the ones whose members
    h_project looks up."""
    return _Window(functools.partial(_hj_lines, q, n, ap_k), q * (1 if ap_k is None else ap_k + 1),
                   lambda key: [pair for pair in key if pair[1]])


def _hj_lines(q: int, n: int, ap_k: Optional[int]) -> Iterator[tuple]:
    """Candidate lines over {1..n} as ((gamma, family set), word keys), in
    the canonical order; alpha is the first word without the positions of
    its first variable block."""
    window = tuple(range(1, n + 1))
    for gamma in gamma_order(n):
        rest = tuple(p for p in window if p not in gamma)
        fam_iter = [None] if ap_k is None else _ap_sets(rest, ap_k + 1)
        for fam in fam_iter:
            avail = rest if fam is None else tuple(p for p in rest if p not in fam)
            # the positions the variable fills: gamma, or gamma u {t} per t in F
            blocks = [gamma] if fam is None else [sorted(set(gamma) | {t}) for t in fam]
            group = gamma, fam
            for alpha_pairs in _alpha_order(avail, q):
                yield group, [
                    tuple(sorted(alpha_pairs + tuple((p, s) for p in block)))
                    for s in range(q) for block in blocks]


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
    windows = ((n, *_hj_window(q, n, ap_k).hypergraph(
                    w.letters for w in words_over(range(1, n + 1), q)))
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
    the q^d substitutions of the blocks.  The window's lines are read as
    in hj_search, point_color (a callable over Vertices, such as
    point_coloring returns) coloring the points.  k_colors only documents
    the expected color count; the coloring is authoritative.
    """
    if not 1 <= q <= _MAX_Q or n < 1 or d < 1:
        raise ValueError(f"need 1 <= q <= {_MAX_Q} and n, d >= 1")
    status, nodes, skipped, gamma, line, color = _phj_window(q, n, d).search(
        point_color, node_budget)
    if gamma is None:
        return PhjReport(status, None, None, None, None, nodes, skipped)
    return PhjReport(status, PhjPoint._of(q, n, d, line[0]), gamma, color,
                     tuple(PhjPoint._of(q, n, d, key) for key in line), nodes, skipped)


@functools.lru_cache(maxsize=16)
def _phj_window(q: int, n: int, d: int) -> _Window:
    """The lines of phj_search and phj_threshold.  A point's factors are
    each of its letters, as a rank, to its multiplicity, as in m_project."""
    return _Window(functools.partial(_phj_lines, q, n, d), q**d,
                   lambda key: sorted(collections.Counter(key).items()))


def _phj_lines(q: int, n: int, d: int) -> Iterator[tuple]:
    """Candidate grid lines as (gamma, point keys), in the canonical order;
    a point's key is its letters, as phj_substitute sets them, and the
    first point, all blocks at letter 1, is the base point."""
    alphabet = range(1, q + 1)
    subs = list(itertools.product(alphabet, repeat=d))
    for gamma in gamma_order(n):
        # the degree of each cell inside a gamma^j block, 0 for the others
        block = [j if set(gamma).issuperset(idx) else 0 for j, idx in _cells(n, d)]
        choices = [(1,) if j else alphabet for j in block]
        for letters in itertools.product(*choices):
            yield gamma, [
                tuple(xs[j - 1] if j else a for j, a in zip(block, letters)) for xs in subs]


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
    windows = ((n, *_phj_window(q, n, d).hypergraph(p.letters for p in grid_points(q, n, d)))
               for n in range(1, max_n + 1))
    return forced_window(windows, r, cap)
