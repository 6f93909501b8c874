"""Located words, combinatorial lines, and the polynomial grid."""

import itertools

import numpy as np
import pytest

import oracles
from sqstar import (
    DomainOverlapError,
    EnumerationCapError,
    LocatedVariableWord,
    LocatedWord,
    PhjPoint,
    avoiding_word,
    concat,
    constant_point,
    grid_points,
    h_project,
    hj_search,
    hj_threshold,
    located_word,
    m_project,
    periodic_coloring,
    phj_search,
    phj_substitute,
    phj_threshold,
    point_coloring,
    power,
    random_coloring,
    star,
    substitute,
    word_coloring,
    words_over,
)
from sqstar.hjlab import _hj_lines, _phj_lines, gamma_order


# ---------------------------------------------------------------------------
# located words

def test_word_normalization():
    w = located_word(3, [(5, 2), (1, 0)])
    assert w.letters == ((1, 0), (5, 2))
    assert w.domain == frozenset({1, 5})
    assert w.letter_at(5) == 2
    assert w.letter_at(2) is None


def test_word_validation():
    with pytest.raises(ValueError):
        LocatedWord(0, ())
    with pytest.raises(ValueError):
        located_word(2, [(0, 1)])
    with pytest.raises(ValueError):
        located_word(2, [(3, 1), (3, 0)])
    with pytest.raises(ValueError):
        located_word(2, [(3, 2)])


def test_variable_word_validation():
    vw = LocatedVariableWord(2, ((2, 1),), frozenset({4, 6}))
    assert vw.variable_positions == frozenset({4, 6})
    with pytest.raises(ValueError):
        LocatedVariableWord(2, ((2, 1),), frozenset())
    with pytest.raises(ValueError):
        LocatedVariableWord(2, ((2, 1),), frozenset({2}))
    with pytest.raises(ValueError):
        LocatedVariableWord(2, ((2, 1),), frozenset({0}))


def test_substitute():
    vw = LocatedVariableWord(3, ((2, 1),), frozenset({4, 6}))
    w = substitute(vw, 2)
    assert w.letters == ((2, 1), (4, 2), (6, 2))
    with pytest.raises(ValueError):
        substitute(vw, 3)


def test_concat_and_overlap():
    a = located_word(2, {1: 1})
    b = located_word(2, {3: 0})
    assert concat(a, b).letters == ((1, 1), (3, 0))
    with pytest.raises(DomainOverlapError):
        concat(a, located_word(2, {1: 0}))
    with pytest.raises(ValueError):
        concat(a, located_word(3, {4: 1}))


def test_concat_laws_exhaustive():
    # all disjoint pairs with supports inside {1,2,3}, binary alphabet
    words = [located_word(2, pairs) for pairs in oracles.all_words(3, 2)]
    for a, b in itertools.product(words, repeat=2):
        if a.domain & b.domain:
            continue
        ab = concat(a, b)
        assert ab.letters == concat(b, a).letters
        assert frozenset(ab.letters) == frozenset(a.letters) | frozenset(b.letters)


def test_words_over_matches_oracle():
    got = {frozenset(w.letters) for w in words_over(range(1, 3), 2)}
    assert got == set(oracles.all_words(2, 2))
    assert len(list(words_over(range(1, 3), 2))) == 9


# ---------------------------------------------------------------------------
# h-projection

def test_h_project_examples(table_100k):
    assert h_project(located_word(3, {}), table_100k) == 1
    assert h_project(located_word(3, {2: 2}), table_100k) == 3  # s_2^2 = 4
    assert h_project(located_word(3, {2: 1}), table_100k) == 2
    # letters act as exponents, position 1 carries the identity
    assert h_project(located_word(3, {1: 2}), table_100k) == 1


def test_h_project_homomorphism(table_1m):
    from sqstar import OutOfRangeError

    rng = np.random.Generator(np.random.PCG64(5))
    checked = 0
    for _ in range(120):
        n1 = int(rng.integers(0, 3))
        n2 = int(rng.integers(0, 3))
        pos = rng.permutation(np.arange(2, 12))
        w1 = located_word(4, [(int(pos[i]), int(rng.integers(0, 4))) for i in range(n1)])
        w2 = located_word(
            4, [(int(pos[n1 + i]), int(rng.integers(0, 4))) for i in range(n2)]
        )
        try:
            lhs = h_project(concat(w1, w2), table_1m)
        except OutOfRangeError:
            # both paths must agree on leaving the table
            with pytest.raises(OutOfRangeError):
                star(h_project(w1, table_1m), h_project(w2, table_1m), table_1m)
            continue
        rhs = star(h_project(w1, table_1m), h_project(w2, table_1m), table_1m)
        assert lhs == rhs
        checked += 1
    assert checked >= 60


def test_word_coloring_skips(table_100k):
    c = periodic_coloring(2, [1, 2], 3)
    wc = word_coloring(c, table_100k)
    assert wc(located_word(2, {2: 1})) == c.color_of(2)
    assert wc(located_word(2, {3: 1})) is None  # projects to 3, beyond bound
    assert wc(located_word(64, {2: 60})) is None  # leaves the table


# ---------------------------------------------------------------------------
# line search

def test_gamma_order():
    # increasing max; below a fixed max, lex over the remaining prefix
    assert list(gamma_order(3)) == [
        (1,),
        (2,),
        (1, 2),
        (3,),
        (1, 3),
        (1, 2, 3),
        (2, 3),
    ]
    got = list(gamma_order(4))
    assert len(got) == len(set(got)) == 15


def test_hj_search_least_witness(table_100k):
    c = random_coloring(0, 2, 100)
    rep = hj_search(2, word_coloring(c, table_100k), 2)
    # position 1 projects to the identity for any letter, so the first
    # candidate (gamma={1}, empty alpha) is already monochromatic
    assert rep.found
    assert rep.gamma == (1,)
    assert rep.alpha.letters == ()
    assert rep.family_set is None
    assert rep.nodes == 1
    assert rep.color == c.color_of(1)
    assert {frozenset(w.letters) for w in rep.line} == {
        frozenset({(1, 0)}),
        frozenset({(1, 1)}),
    }


def test_hj_search_exhausted_below_threshold():
    cmap = oracles.hj_avoider_oracle(2, 2, 1)
    assert cmap is not None
    rep = hj_search(2, lambda w: cmap[frozenset(w.letters)], 1)
    assert rep.status == "exhausted"
    assert rep.nodes > 0


def test_hj_search_forced_at_threshold():
    rng = np.random.Generator(np.random.PCG64(9))
    words = oracles.all_words(2, 2)
    for _ in range(20):
        cmap = dict(zip(words, (int(v) for v in rng.integers(1, 3, len(words)))))
        rep = hj_search(2, lambda w: cmap[frozenset(w.letters)], 2)
        assert rep.found
        assert len({cmap[frozenset(w.letters)] for w in rep.line}) == 1


def test_hj_search_budget():
    rep = hj_search(2, lambda w: None, 1, node_budget=0)
    assert rep.status == "budget"
    assert rep.nodes == 0
    # a budget that reads every candidate of the window is still spent
    rep = hj_search(2, lambda w: None, 1, node_budget=1)
    assert rep.status == "budget"
    assert rep.nodes == 1
    with pytest.raises(ValueError, match="node_budget"):
        hj_search(2, lambda w: None, 1, node_budget=-1)
    rep = hj_search(2, lambda w: None, 2, node_budget=5)
    assert rep.status == "budget"
    assert rep.nodes == 5


def test_hj_search_first_deciding_word_settles_a_line():
    # the one line over {1} colors its words 1, 2, None: the mismatch comes
    # before the uncolorable word, so the line is rejected, not skipped
    colors = {0: 1, 1: 2, 2: None}
    rep = hj_search(3, lambda w: colors[w.letter_at(1)], 1)
    assert (rep.status, rep.nodes, rep.skipped) == ("exhausted", 1, 0)
    rep = hj_search(3, lambda w: colors[2 - w.letter_at(1)], 1)
    assert (rep.status, rep.nodes, rep.skipped) == ("exhausted", 1, 1)


def test_hj_search_ap_family(table_100k):
    c = periodic_coloring(1, [1], 100)
    rep = hj_search(2, word_coloring(c, table_100k), 3, ap_k=1)
    assert rep.found
    assert rep.gamma == (1,)
    assert rep.family_set == (2, 3)  # least 2-term progression avoiding gamma
    assert len(rep.line) == 4  # alphabet x family
    assert rep.color == 1


def test_hj_search_validation():
    with pytest.raises(ValueError):
        hj_search(0, lambda w: 1, 2)
    with pytest.raises(ValueError):
        hj_search(2, lambda w: 1, 0)
    with pytest.raises(ValueError, match="ap_k"):  # checked before any line is read
        hj_search(2, lambda w: 1, 3, ap_k=-1, node_budget=0)
    with pytest.raises(ValueError, match="ap_k"):
        hj_threshold(2, 2, 3, ap_k=-1)


def test_hj_threshold_matches_oracle():
    assert hj_threshold(2, 2, 3) == oracles.hj_threshold_oracle(2, 2, 3) == 2
    assert hj_threshold(2, 3, 2) == oracles.hj_threshold_oracle(2, 3, 2)
    assert hj_threshold(1, 2, 2) == 1
    assert hj_threshold(2, 10**11, 2) is None  # no per-color allocation
    with pytest.raises(EnumerationCapError):
        hj_threshold(2, 2, 3, cap=50)
    with pytest.raises(ValueError):
        hj_threshold(2, 0, 3)


def _avoiding(vertices, lines, r):
    """avoiding_word over the vertices a threshold indexes and its edges."""
    index = {v: i for i, v in enumerate(vertices)}
    return avoiding_word(len(vertices), [[index[v] for v in line] for *_, line in lines], r)


@pytest.mark.parametrize("q, r, max_n, answer", [(2, 2, 3, 2), (3, 2, 2, None)])
def test_hj_threshold_certificate(q, r, max_n, answer):
    """Below the answer (or at max_n) an avoiding word passes the oracle's
    line check; at the answer there is none."""
    assert hj_threshold(q, r, max_n) == answer
    n = max_n if answer is None else answer - 1
    words = list(words_over(range(1, n + 1), q))
    word = _avoiding(words, _hj_lines(q, n, None), r)
    cmap = dict(zip((frozenset(w.letters) for w in words), word))
    assert set(cmap) == set(oracles.all_words(n, q))
    assert not any(len({cmap[w] for w in line}) == 1 for line in oracles.all_lines(n, q))
    if answer is not None:
        words = list(words_over(range(1, answer + 1), q))
        assert _avoiding(words, _hj_lines(q, answer, None), r) is None


# ---------------------------------------------------------------------------
# polynomial grid

def _flat(point):
    """The point's letters as one tuple, read through its component arrays."""
    return tuple(int(v) for c in point.components for v in c.ravel())


def test_point_validation():
    with pytest.raises(ValueError):
        PhjPoint(2, 2, 1, [[1, 3]])
    with pytest.raises(ValueError):
        PhjPoint(2, 2, 2, [[1, 1]])
    with pytest.raises(ValueError):
        PhjPoint(0, 2, 1, [[1, 1]])
    with pytest.raises(ValueError):
        PhjPoint(2, 2, 1, [np.array([1, 65537])])  # no int16 wrap-around to 1
    with pytest.raises(ValueError):  # letters must fit the int16 components
        PhjPoint(2**15, 1, 1, [[2**15]])
    with pytest.raises(ValueError):
        phj_search(2**15, 2, 1, 1, lambda p: None, node_budget=0)
    with pytest.raises(ValueError):
        next(grid_points(2**15, 1, 1))
    with pytest.raises(ValueError):
        PhjPoint(2, 2, 1, [[1, 2, 1]])
    comp2 = np.array([[1, 2], [2, 1]])
    p = PhjPoint(2, 2, 2, [[1, 2], comp2])
    assert p.key() == ((1, 2), (1, 2, 2, 1))
    for j, c in enumerate(p.components, start=1):
        assert c.dtype == np.int16 and c.shape == (2,) * j
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[(0,) * j] = 2
    assert p.components[1].tolist() == [[1, 2], [2, 1]]
    comp2[0, 0] = 2  # the caller's array is copied, not shared
    assert p.key() == ((1, 2), (1, 2, 2, 1))


def test_point_equality_and_doc():
    p = PhjPoint(2, 2, 2, [[1, 2], [1, 2, 2, 1]])
    assert p.to_doc() == {"q": 2, "n": 2, "d": 2, "components": [[1, 2], [1, 2, 2, 1]]}
    q = PhjPoint.from_doc(p.to_doc())
    assert p == q
    assert hash(p) == hash(q)
    assert p != constant_point(2, 2, 2)
    # equality and hash follow (q, n, d, key()): distinct keys, distinct points
    points = [*grid_points(2, 2, 2), *grid_points(3, 2, 1), *grid_points(2, 1, 2)]
    assert len(set(points)) == len({(x.q, x.n, x.d, x.key()) for x in points}) == len(points)
    same = PhjPoint(2, 2, 2, p.key())
    assert same == p and hash(same) == hash(p) and same is not p
    assert PhjPoint(3, 2, 2, p.key()) != p  # same letters, other alphabet


def test_constant_point():
    p = constant_point(3, 2, 2, letter=2)
    assert all((c == 2).all() for c in p.components)


def test_phj_substitute_blocks():
    comp1 = [1, 2, 3]
    comp2 = [[(i + j) % 3 + 1 for j in range(3)] for i in range(3)]
    p = PhjPoint(3, 3, 2, [comp1, comp2])
    out = phj_substitute(p, (1, 3), (3, 2))
    # degree-1 block: positions 1 and 3
    assert list(out.components[0]) == [3, 2, 3]
    expect = np.array(comp2)
    expect[np.ix_([0, 2], [0, 2])] = 2
    assert (out.components[1] == expect).all()
    # untouched cells preserved
    assert out.components[1][1, 1] == comp2[1][1]


def test_phj_substitute_validation():
    p = constant_point(2, 2, 1)
    with pytest.raises(ValueError):
        phj_substitute(p, (), (1,))
    with pytest.raises(ValueError):
        phj_substitute(p, (3,), (1,))
    with pytest.raises(ValueError):
        phj_substitute(p, (1,), (1, 2))
    with pytest.raises(ValueError):
        phj_substitute(p, (1,), (3,))


def test_m_project_examples(table_100k):
    assert m_project(constant_point(2, 2, 1), table_100k) == 1  # letters rank 1
    p = PhjPoint(2, 2, 1, [[2, 2]])
    assert m_project(p, table_100k) == 3  # s_2 * s_2 = 4
    p2 = PhjPoint(2, 1, 2, [[2], [2]])
    assert m_project(p2, table_100k) == 3


def test_m_project_decomposition(table_1m):
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(40):
        q, n, d = 3, 2, 2
        comps = [rng.integers(1, q + 1, size=(n,) * j) for j in range(1, d + 1)]
        p = PhjPoint(q, n, d, comps)
        flat = np.concatenate([c.ravel() for c in comps])
        counts = np.bincount(flat, minlength=q + 1)
        acc = 1
        for v in range(1, q + 1):
            if counts[v]:
                acc = star(acc, power(int(v), int(counts[v]), table_1m), table_1m)
        assert m_project(p, table_1m) == acc


def test_point_coloring_skips(table_100k):
    c = periodic_coloring(2, [1, 2], 3)
    pc = point_coloring(c, table_100k)
    assert pc(constant_point(2, 2, 1)) == c.color_of(1)
    assert pc(PhjPoint(2, 2, 1, [[2, 2]])) is None  # projects to 3


def test_grid_points_match_oracle():
    pts = list(grid_points(2, 2, 2))
    assert [_flat(p) for p in pts] == oracles.grid_tuples(2, 2, 2)
    assert len(set(pts)) == len(pts) == 64


@pytest.mark.parametrize("q, n, d", [(2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2)])
def test_phj_lines_match_oracle(q, n, d):
    """The lines the search and the threshold scan are exactly the oracle's
    substitution lines, each once."""
    lines = [frozenset(_flat(p) for p in line) for *_, line in _phj_lines(q, n, d)]
    expect = {frozenset(line) for line in oracles.grid_lines(q, n, d)}
    assert len(lines) == len(set(lines)) == len(expect)
    assert set(lines) == expect


def test_phj_search_first_candidate(table_100k):
    c = random_coloring(2, 2, 100)
    rep = phj_search(2, 2, 1, 1, point_coloring(c, table_100k))
    # n = 1: the only gamma is {1}, no free cells, and the line is the two
    # constant points, projecting to 1 and 2
    assert rep.nodes == 1
    if c.color_of(1) == c.color_of(2):
        assert rep.found and rep.gamma == (1,) and rep.color == c.color_of(1)
        assert {m_project(p, table_100k) for p in rep.line} == {1, 2}
    else:
        assert rep.status == "exhausted"


def test_phj_search_exhausted_below_threshold():
    points = oracles.grid_tuples(2, 1, 1)
    lines = oracles.grid_lines(2, 1, 1)
    # pick the avoider by hand: two points, distinct colors
    cmap = {points[0]: 1, points[1]: 2}
    assert not any(len({cmap[p] for p in line}) == 1 for line in lines)

    def pc(point):
        return cmap[_flat(point)]

    rep = phj_search(2, 2, 1, 1, pc)
    assert rep.status == "exhausted"


def test_phj_search_forced_at_threshold():
    rng = np.random.Generator(np.random.PCG64(13))
    points = oracles.grid_tuples(2, 2, 1)
    for _ in range(10):
        cmap = dict(zip(points, (int(v) for v in rng.integers(1, 3, len(points)))))

        def pc(point):
            return cmap[_flat(point)]

        rep = phj_search(2, 2, 1, 2, pc)
        assert rep.found
        assert len({pc(p) for p in rep.line}) == 1


def test_phj_search_budget():
    rep = phj_search(2, 2, 1, 2, lambda p: None, node_budget=3)
    assert rep.status == "budget"
    assert rep.nodes == 3
    rep = phj_search(2, 2, 1, 1, lambda p: None, node_budget=1)
    assert rep.status == "budget"
    assert rep.nodes == 1
    with pytest.raises(ValueError, match="node_budget"):
        phj_search(2, 2, 1, 1, lambda p: None, node_budget=-1)


def test_phj_search_skips_uncolorable():
    rep = phj_search(2, 2, 1, 1, lambda p: None)
    assert rep.status == "exhausted"
    assert rep.skipped == rep.nodes > 0


def test_phj_threshold_matches_oracle():
    assert phj_threshold(2, 2, 1, 3) == oracles.phj_threshold_oracle(2, 2, 1, 3) == 2
    assert phj_threshold(2, 10**11, 1, 2) is None  # no per-color allocation
    with pytest.raises(EnumerationCapError):
        phj_threshold(2, 2, 2, 3, cap=100)
    with pytest.raises(ValueError):
        phj_threshold(2, 0, 1, 3)


def test_phj_threshold_certificate():
    assert phj_threshold(2, 2, 1, 3) == 2
    points = list(grid_points(2, 1, 1))
    cmap = dict(zip(map(_flat, points), _avoiding(points, _phj_lines(2, 1, 1), 2)))
    assert set(cmap) == set(oracles.grid_tuples(2, 1, 1))
    assert not any(len({cmap[p] for p in line}) == 1 for line in oracles.grid_lines(2, 1, 1))
    assert _avoiding(list(grid_points(2, 2, 1)), _phj_lines(2, 2, 1), 2) is None
