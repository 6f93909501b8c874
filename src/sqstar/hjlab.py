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
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .colorings import DEFAULT_ENUMERATION_CAP, Coloring
from .errors import DomainOverlapError
from .ground import GroundTable
from .search import _Report, forced_window, scan_blocks
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


def _colors(coloring: Coloring, table: GroundTable, rows: int, factors) -> np.ndarray:
    """coloring's color of each of rows products of s_x ** e over the
    (x, e) columns of factors, ranked in one _Saturating product; 0 where
    the product leaves the table or the coloring domain."""
    ar = _Saturating(table)
    p = np.ones(rows, dtype=np.uint64)
    for x, e in factors:
        p = ar.mul(p, ar.pow(ar.member(x), e))
    return coloring.colors_of(ar.rank(p), ar.ok)


def word_coloring(coloring: Coloring, table: GroundTable) -> Callable:
    """The coloring hj_search reads: color(keys) gives each word key (its
    position-sorted (position, letter) pairs) the color of its h
    projection, or 0 where that leaves the table or the coloring domain.
    The factors are the key's pairs with a nonzero letter, the ones whose
    members h_project looks up, padded with (0, 0)."""

    def color(keys: list) -> np.ndarray:
        factors = [[pair for pair in key if pair[1]] for key in keys]
        cols = max(map(len, factors), default=0)
        pairs = [f + [(0, 0)] * (cols - len(f)) for f in factors]
        pairs = np.array(pairs, dtype=np.int64).reshape(len(keys), cols, 2)
        return _colors(coloring, table, len(keys), pairs.transpose(1, 2, 0))

    return color


def point_coloring(coloring: Coloring, table: GroundTable) -> Callable:
    """The coloring phj_search reads: color(keys) gives each grid point
    key (its letters) the color of its m projection, each cell's letter
    one factor as in m_project, or 0 where that leaves the table or the
    coloring domain."""

    def color(keys: list) -> np.ndarray:
        cells = np.array(keys, dtype=np.int64).T
        return _colors(coloring, table, len(keys), ((x, 1) for x in cells))

    return color


class _Window:
    """The lines of one hj or phj window, filled as a prefix on demand.

    lines() yields the window's lines in the canonical order, each as
    (group, point keys); a group is the report data that a run of lines
    shares and their points do not show (gamma, and the family set), one
    object for the run.  Line i's group is groups[i] and its points are
    edges[i], indices into keys, the point keys in order of first
    appearance.
    """

    def __init__(self, lines: Callable, width: int):
        self._lines, self._width = lines, width
        self._clear()

    def _clear(self) -> None:
        self._source, self._index = self._lines(), {}
        self.keys, self.groups, self._stage = [], [], None
        self.edges = np.zeros((0, self._width), dtype=np.int32)

    def fill(self, count: Optional[int] = None) -> np.ndarray:
        """Fill the first count lines, or every line for None, and return
        the edges.  A fill cut short by an exception empties the window."""
        start = len(self.edges)
        if count is not None and count <= start:
            return self.edges
        try:
            index, rows = self._index, []
            more = None if count is None else count - start
            for group, keys in itertools.islice(self._source, more):
                self.groups.append(group)
                rows.append([index.setdefault(k, len(index)) for k in keys])
            self.keys += list(index)[len(self.keys):]
            self.edges = np.concatenate(
                [self.edges, np.array(rows, dtype=np.int32).reshape(-1, self._width)])
        except BaseException:
            self._clear()
            raise
        return self.edges

    def stage(self, n: int) -> tuple:
        """search.forced_window's stage of every line as window n, each line
        tagged n, the vertices led by descending degree; built once."""
        if self._stage is None:
            degree = np.bincount(self.fill().ravel(), minlength=len(self.keys)).tolist()
            lead = sorted(range(len(degree)), key=lambda v: -degree[v])  # ties in key order
            self._stage = n, n, [(e, n) for e in self.edges.tolist()], lead
        return self._stage

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
                colors = np.concatenate([colors, color(self.keys[lo:hi])])
            return colors[edges]

        status, nodes, skipped, hit, c = scan_blocks(block, node_budget)
        if hit is None:
            return status, nodes, skipped, None, None, None
        line = [self.keys[v] for v in self.edges[nodes - 1]]
        return status, nodes, skipped, self.groups[nodes - 1], line, c


# ---------------------------------------------------------------------------
# combinatorial-line search over a finite window

@dataclass
class HjReport(_Report):
    alpha: Optional[LocatedWord]
    gamma: Optional[tuple]
    family_set: Optional[tuple]
    color: Optional[int]
    line: Optional[tuple]
    nodes: int
    skipped: int


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
    """Arithmetic progressions with `terms` entries inside a position set,
    each once: a one-term progression takes only the step 1."""
    allowed = set(window)
    top = max(window) if window else 0
    for a in sorted(allowed):
        for d in range(1, top + 1 if terms > 1 else 2):
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
    nodes, skips).  word_color, a callable over a list of word keys such
    as word_coloring returns, colors each word once, with the first block
    that reads it.  Only the hit line's words are built.
    """
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
    """The lines of hj_search and hj_threshold."""
    if q < 1 or n < 1 or (ap_k is not None and ap_k < 0):
        raise ValueError("need q >= 1, n >= 1 and ap_k >= 0")
    return _Window(functools.partial(_hj_lines, q, n, ap_k), q * (1 if ap_k is None else ap_k + 1))


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


def hj_threshold(
    q: int,
    r: int,
    max_n: int,
    ap_k: Optional[int] = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Optional[int]:
    """Least window size forcing a monochromatic line for every coloring.

    n is forced when search.forced_window finds no r-coloring of the words
    over {1..n} leaving every line hj_search scans non-monochromatic; each
    window is one stage (n, n), all lines tagged n, led by the words in
    descending degree; cap bounds a probe.
    """
    stages = (_hj_window(q, n, ap_k).stage(n) for n in range(1, max_n + 1))
    return forced_window(stages, r, cap)


# ---------------------------------------------------------------------------
# the polynomial grid

_MAX_Q = 2**15 - 1  # letters must fit the int16 components


def _check_grid(q: int, n: int, d: int) -> None:
    if not 1 <= q <= _MAX_Q or n < 1 or d < 1:
        raise ValueError(f"need 1 <= q <= {_MAX_Q} and n, d >= 1")


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
        _check_grid(q, n, d)
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
class PhjReport(_Report):
    point: Optional[PhjPoint]
    gamma: Optional[tuple]
    color: Optional[int]
    line: Optional[tuple]
    nodes: int
    skipped: int


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
    in hj_search, point_color (a callable over a list of point keys, such
    as point_coloring returns) coloring the points.  k_colors only
    documents the expected color count; the coloring is authoritative.
    """
    status, nodes, skipped, gamma, line, color = _phj_window(q, n, d).search(
        point_color, node_budget)
    if gamma is None:
        return PhjReport(status, None, None, None, None, nodes, skipped)
    return PhjReport(status, PhjPoint._of(q, n, d, line[0]), gamma, color,
                     tuple(PhjPoint._of(q, n, d, key) for key in line), nodes, skipped)


@functools.lru_cache(maxsize=16)
def _phj_window(q: int, n: int, d: int) -> _Window:
    """The lines of phj_search and phj_threshold."""
    _check_grid(q, n, d)
    return _Window(functools.partial(_phj_lines, q, n, d), q**d)


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


def phj_threshold(
    q: int,
    r: int,
    d: int,
    max_n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Optional[int]:
    """Least window size forcing a monochromatic grid line for every coloring.

    As hj_threshold, over the grid points (vertices) and the lines
    phj_search scans (edges).
    """
    stages = (_phj_window(q, n, d).stage(n) for n in range(1, max_n + 1))
    return forced_window(stages, r, cap)
