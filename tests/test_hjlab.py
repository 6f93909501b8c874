"""Located words, combinatorial lines, and the polynomial grid."""

import collections
import itertools

import numpy as np
import pytest

import oracles
from sqstar import (
    DomainOverlapError,
    EnumerationCapError,
    LocatedWord,
    OutOfRangeError,
    PhjPoint,
    avoiding_word,
    build_table,
    concat,
    h_project,
    hj_search,
    hj_threshold,
    m_project,
    periodic_coloring,
    phj_search,
    phj_substitute,
    phj_threshold,
    point_coloring,
    power,
    random_coloring,
    star,
    word_coloring,
)
from sqstar.hjlab import _Window, _hj_lines, _hj_window, _phj_lines, _phj_window, gamma_order
from sqstar.search import forced_window


def _keyed(color_of):
    """A structural coloring: color_of(key) for each of a list of vertex
    keys, None for uncolorable."""
    return lambda keys: [color_of(key) or 0 for key in keys]


_UNCOLORABLE = _keyed(lambda key: None)


# ---------------------------------------------------------------------------
# located words

def test_word_normalization():
    w = LocatedWord(3, [(5, 2), (1, 0)])
    assert w.letters == ((1, 0), (5, 2))
    assert w.domain == frozenset({1, 5})


def test_word_validation():
    with pytest.raises(ValueError):
        LocatedWord(0, ())
    with pytest.raises(ValueError):
        LocatedWord(2, [(0, 1)])
    with pytest.raises(ValueError):
        LocatedWord(2, [(3, 1), (3, 0)])
    with pytest.raises(ValueError):
        LocatedWord(2, [(3, 2)])


def test_concat_and_overlap():
    a = LocatedWord(2, {1: 1}.items())
    b = LocatedWord(2, {3: 0}.items())
    assert concat(a, b).letters == ((1, 1), (3, 0))
    with pytest.raises(DomainOverlapError):
        concat(a, LocatedWord(2, {1: 0}.items()))
    with pytest.raises(ValueError):
        concat(a, LocatedWord(3, {4: 1}.items()))


def test_concat_laws_exhaustive():
    # all disjoint pairs with supports inside {1,2,3}, binary alphabet
    words = [LocatedWord(2, pairs) for pairs in oracles.all_words(3, 2)]
    for a, b in itertools.product(words, repeat=2):
        if a.domain & b.domain:
            continue
        ab = concat(a, b)
        assert ab.letters == concat(b, a).letters
        assert frozenset(ab.letters) == frozenset(a.letters) | frozenset(b.letters)


# ---------------------------------------------------------------------------
# h-projection

def test_h_project_examples(table_100k):
    assert h_project(LocatedWord(3, ()), table_100k) == 1
    assert h_project(LocatedWord(3, {2: 2}.items()), table_100k) == 3  # s_2^2 = 4
    assert h_project(LocatedWord(3, {2: 1}.items()), table_100k) == 2
    # letters act as exponents, position 1 carries the identity
    assert h_project(LocatedWord(3, {1: 2}.items()), table_100k) == 1


def test_h_project_homomorphism(table_1m):
    from sqstar import OutOfRangeError

    rng = np.random.Generator(np.random.PCG64(5))
    checked = 0
    for _ in range(120):
        n1 = int(rng.integers(0, 3))
        n2 = int(rng.integers(0, 3))
        pos = rng.permutation(np.arange(2, 12))
        w1 = LocatedWord(4, [(int(pos[i]), int(rng.integers(0, 4))) for i in range(n1)])
        w2 = LocatedWord(
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


def _vertex_colors(coloring, window, table, kind="hj"):
    """The colors of every vertex of the whole window, by key: through
    word_coloring for an hj window, point_coloring for a phj window."""
    window.fill()
    make = word_coloring if kind == "hj" else point_coloring
    colors = make(coloring, table)(window.keys)
    assert len(colors) == len(window.keys)
    return dict(zip(window.keys, np.asarray(colors).tolist()))


def test_word_coloring_skips(table_100k):
    c = periodic_coloring(2, [1, 2], 3)
    colors = _vertex_colors(c, _hj_window(2, 3, None), table_100k)
    assert colors[LocatedWord(2, {2: 1}.items()).letters] == c.color_of(2)
    assert colors[LocatedWord(2, {3: 1}.items()).letters] == 0  # projects to 3, beyond bound
    colors = _vertex_colors(c, _hj_window(64, 2, None), table_100k)
    assert colors[LocatedWord(64, {2: 60}.items()).letters] == 0  # leaves the table


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


@pytest.mark.parametrize("n", range(11))
def test_gamma_order_matches_sorted_subsets(n):
    assert list(gamma_order(n)) == oracles.gamma_subsets(n)


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
    rep = hj_search(2, _keyed(lambda key: cmap[frozenset(key)]), 1)
    assert rep.status == "exhausted"
    assert rep.nodes > 0


def test_hj_search_forced_at_threshold():
    rng = np.random.Generator(np.random.PCG64(9))
    words = oracles.all_words(2, 2)
    for _ in range(20):
        cmap = dict(zip(words, (int(v) for v in rng.integers(1, 3, len(words)))))
        rep = hj_search(2, _keyed(lambda key: cmap[frozenset(key)]), 2)
        assert rep.found
        assert len({cmap[frozenset(w.letters)] for w in rep.line}) == 1


def test_hj_search_budget():
    rep = hj_search(2, _UNCOLORABLE, 1, node_budget=0)
    assert rep.status == "budget"
    assert rep.nodes == 0
    # a budget that reads every candidate of the window is still spent
    rep = hj_search(2, _UNCOLORABLE, 1, node_budget=1)
    assert rep.status == "budget"
    assert rep.nodes == 1
    with pytest.raises(ValueError, match="node_budget"):
        hj_search(2, _UNCOLORABLE, 1, node_budget=-1)
    rep = hj_search(2, _UNCOLORABLE, 2, node_budget=5)
    assert rep.status == "budget"
    assert rep.nodes == 5


def test_hj_search_first_deciding_word_settles_a_line():
    # the one line over {1} colors its words 1, 2, None: the mismatch comes
    # before the uncolorable word, so the line is rejected, not skipped
    colors = {0: 1, 1: 2, 2: None}
    rep = hj_search(3, _keyed(lambda key: colors[dict(key)[1]]), 1)
    assert (rep.status, rep.nodes, rep.skipped) == ("exhausted", 1, 0)
    rep = hj_search(3, _keyed(lambda key: colors[2 - dict(key)[1]]), 1)
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
        hj_search(0, _UNCOLORABLE, 2)
    with pytest.raises(ValueError):
        hj_search(2, _UNCOLORABLE, 0)
    with pytest.raises(ValueError, match="ap_k"):  # checked before any line is read
        hj_search(2, _UNCOLORABLE, 3, ap_k=-1, node_budget=0)
    with pytest.raises(ValueError, match="ap_k"):
        hj_threshold(2, 2, 3, ap_k=-1)


def test_hj_threshold_matches_oracle():
    assert hj_threshold(2, 2, 3) == oracles.hj_threshold_oracle(2, 2, 3) == 2
    assert hj_threshold(2, 3, 2) == oracles.hj_threshold_oracle(2, 3, 2)
    assert hj_threshold(1, 2, 2) == 1
    assert hj_threshold(2, 10**11, 2) is None  # no per-color allocation
    assert hj_threshold(2, 2, 3, cap=5) == 2  # 5 nodes a window, led by degree
    with pytest.raises(EnumerationCapError):
        hj_threshold(2, 2, 3, cap=4)
    with pytest.raises(ValueError):
        hj_threshold(2, 0, 3)


def _avoiding(keys, lines, r):
    """avoiding_word over the vertex keys a threshold indexes and the
    lines of a line generator."""
    index = {k: i for i, k in enumerate(keys)}
    return avoiding_word(len(keys), [[index[k] for k in line] for _, line in lines], r)[0]


def _words(n, q):
    """The oracle's words over {1..n} as sorted letter tuples, the keys
    _hj_lines uses."""
    return [tuple(sorted(w)) for w in oracles.all_words(n, q)]


def test_hj_lines_list_each_family_once():
    """A one-term family {t} is listed once per t: 148 lines over {1..4}
    (67 distinct word lists), and two-term families keep their 42."""
    lines = list(_hj_lines(2, 4, 0))
    assert len(lines) == len({(group, tuple(words)) for group, words in lines}) == 148
    assert len({tuple(words) for _, words in lines}) == 67
    assert sum(1 for _ in _hj_lines(2, 4, 1)) == 42


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3])
def test_hj_lines_are_the_oracle_lines(q, n):
    """_hj_lines states hj substitution once: its word lists are exactly
    the oracle's lines alpha + gamma x {s}, s over the alphabet in order,
    each as often as the oracle lists it."""
    lines = [tuple(frozenset(key) for key in words) for _, words in _hj_lines(q, n, None)]
    assert collections.Counter(lines) == collections.Counter(oracles.all_lines(n, q))


def _stage_word(window, n, r):
    """avoiding_word over a window's threshold stage, vertices numbered in
    the stage's lead order: {point key: color}, or None."""
    _, _, tagged, lead = window.stage(n)
    at = {v: i for i, v in enumerate(lead)}
    word, _ = avoiding_word(len(lead), [[at[v] for v in e] for e, _ in tagged], r)
    return word and {window.keys[v]: word[at[v]] for v in lead}


def test_hj_threshold_three_colors():
    """hj(2, 3) is forced at 3: an avoiding word for n = 2 passes the
    oracle's line check, and in oracles.all_words order, a vertex order the
    package does not use, window 3 has no avoiding word.  Led by degree a
    window takes at most 15 nodes; by first appearance window 3 takes 148."""
    assert hj_threshold(2, 3, 4) == 3
    assert hj_threshold(2, 3, 4, cap=15) == 3
    with pytest.raises(EnumerationCapError):
        hj_threshold(2, 3, 4, cap=14)
    stages = [_hj_window(2, n, None).stage(n)[:3] + ((),) for n in range(1, 5)]
    assert forced_window(stages, 3, 148) == 3
    with pytest.raises(EnumerationCapError):
        forced_window(stages, 3, 147)
    words = _words(2, 2)
    cmap = dict(zip(map(frozenset, words), _avoiding(words, _hj_lines(2, 2, None), 3)))
    assert set(cmap) == set(oracles.all_words(2, 2))
    assert not any(len({cmap[w] for w in line}) == 1 for line in oracles.all_lines(2, 2))
    words = _words(3, 2)
    assert _avoiding(words, _hj_lines(2, 3, None), 3) is None


def test_line_thresholds_past_the_chronological_search():
    """hj(3, 2) is forced at 4, and phj(2, 2) at d = 2 is not forced up
    to 3; a chronological search passes 2**20 nodes on either.  The words
    for hj window 3 and phj window 3, found in the stages' degree order,
    pass the oracles' line checks."""
    assert hj_threshold(3, 2, 4) == 4
    cmap = {frozenset(k): c for k, c in _stage_word(_hj_window(3, 3, None), 3, 2).items()}
    assert set(cmap) | {frozenset()} == set(oracles.all_words(3, 3))  # on no line: the empty word
    assert not any(len({cmap[w] for w in line}) == 1 for line in oracles.all_lines(3, 3))
    assert phj_threshold(2, 2, 2, 3) is None
    cmap = _stage_word(_phj_window(2, 3, 2), 3, 2)
    assert set(cmap) == set(oracles.grid_tuples(2, 3, 2))
    assert not any(len({cmap[p] for p in line}) == 1 for line in oracles.grid_lines(2, 3, 2))


@pytest.mark.parametrize("q, r, max_n, answer", [(2, 2, 3, 2), (3, 2, 2, None)])
def test_hj_threshold_certificate(q, r, max_n, answer):
    """Below the answer (or at max_n) an avoiding word passes the oracle's
    line check; at the answer there is none."""
    assert hj_threshold(q, r, max_n) == answer
    n = max_n if answer is None else answer - 1
    words = _words(n, q)
    word = _avoiding(words, _hj_lines(q, n, None), r)
    cmap = dict(zip(map(frozenset, words), word))
    assert set(cmap) == set(oracles.all_words(n, q))
    assert not any(len({cmap[w] for w in line}) == 1 for line in oracles.all_lines(n, q))
    if answer is not None:
        words = _words(answer, q)
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
        phj_search(2**15, 2, 1, 1, _UNCOLORABLE, node_budget=0)
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
    assert repr(p) == "PhjPoint(q=2, n=2, d=2, ((1, 2), (1, 2, 2, 1)))"
    q = PhjPoint(2, 2, 2, p.to_doc()["components"])
    assert p == q
    assert hash(p) == hash(q)
    assert p != PhjPoint(2, 2, 2, [[1, 1], [1, 1, 1, 1]])
    # equality and hash follow (q, n, d, key()): distinct keys, distinct points
    points = [PhjPoint._of(q, n, d, t) for q, n, d in ((2, 2, 2), (3, 2, 1), (2, 1, 2))
              for t in oracles.grid_tuples(q, n, d)]
    assert len(set(points)) == len({(x.q, x.n, x.d, x.key()) for x in points}) == len(points)
    same = PhjPoint(2, 2, 2, p.key())
    assert same == p and hash(same) == hash(p) and same is not p
    assert PhjPoint(3, 2, 2, p.key()) != p  # same letters, other alphabet


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
    p = PhjPoint(2, 2, 1, [[1, 1]])
    with pytest.raises(ValueError):
        phj_substitute(p, (), (1,))
    with pytest.raises(ValueError):
        phj_substitute(p, (3,), (1,))
    with pytest.raises(ValueError):
        phj_substitute(p, (1,), (1, 2))
    with pytest.raises(ValueError):
        phj_substitute(p, (1,), (3,))


def test_m_project_examples(table_100k):
    assert m_project(PhjPoint(2, 2, 1, [[1, 1]]), table_100k) == 1  # letters rank 1
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
    colors = _vertex_colors(c, _phj_window(2, 2, 1), table_100k, "phj")
    assert colors[PhjPoint(2, 2, 1, [[1, 1]]).letters] == c.color_of(1)
    assert colors[PhjPoint(2, 2, 1, [[2, 2]]).letters] == 0  # projects to 3


@pytest.mark.parametrize("q, n, d", [(2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2)])
def test_phj_lines_match_oracle(q, n, d):
    """The lines the search and the threshold scan are exactly the oracle's
    substitution lines, each once."""
    lines = [frozenset(_flat(PhjPoint._of(q, n, d, key)) for key in line)
             for _, line in _phj_lines(q, n, d)]
    expect = {frozenset(line) for line in oracles.grid_lines(q, n, d)}
    assert len(lines) == len(set(lines)) == len(expect)
    assert set(lines) == expect


@pytest.mark.parametrize("q, n, d", [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 2), (3, 2, 2)])
def test_phj_lines_are_substitutions_of_their_base(q, n, d):
    """Each line _phj_lines lists is phj_substitute of its first point over
    every xs, in order: the base holds letter 1 on each gamma^j block, and
    the line overwrites that block with xs[j-1] and keeps every other cell."""
    cells = [idx for j in range(1, d + 1) for idx in itertools.product(range(1, n + 1), repeat=j)]
    subs = list(itertools.product(range(1, q + 1), repeat=d))
    for gamma, line in _phj_lines(q, n, d):
        base = PhjPoint._of(q, n, d, line[0])
        assert line == [phj_substitute(base, gamma, xs).letters for xs in subs]
        inside = [set(idx) <= set(gamma) for idx in cells]
        assert all(a == 1 for a, b in zip(base.letters, inside) if b)
        assert line == [tuple(xs[len(idx) - 1] if b else a
                              for idx, b, a in zip(cells, inside, base.letters)) for xs in subs]


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

    rep = phj_search(2, 2, 1, 1, _keyed(cmap.get))
    assert rep.status == "exhausted"


def test_phj_search_forced_at_threshold():
    rng = np.random.Generator(np.random.PCG64(13))
    points = oracles.grid_tuples(2, 2, 1)
    for _ in range(10):
        cmap = dict(zip(points, (int(v) for v in rng.integers(1, 3, len(points)))))

        rep = phj_search(2, 2, 1, 2, _keyed(cmap.get))
        assert rep.found
        assert len({cmap[_flat(p)] for p in rep.line}) == 1


def test_phj_search_budget():
    rep = phj_search(2, 2, 1, 2, _UNCOLORABLE, node_budget=3)
    assert rep.status == "budget"
    assert rep.nodes == 3
    rep = phj_search(2, 2, 1, 1, _UNCOLORABLE, node_budget=1)
    assert rep.status == "budget"
    assert rep.nodes == 1
    with pytest.raises(ValueError, match="node_budget"):
        phj_search(2, 2, 1, 1, _UNCOLORABLE, node_budget=-1)


def test_phj_search_skips_uncolorable():
    rep = phj_search(2, 2, 1, 1, _UNCOLORABLE)
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
    points = oracles.grid_tuples(2, 1, 1)
    cmap = dict(zip(points, _avoiding(points, _phj_lines(2, 1, 1), 2)))
    assert set(cmap) == set(oracles.grid_tuples(2, 1, 1))
    assert not any(len({cmap[p] for p in line}) == 1 for line in oracles.grid_lines(2, 1, 1))
    assert _avoiding(oracles.grid_tuples(2, 2, 1), _phj_lines(2, 2, 1), 2) is None


# ---------------------------------------------------------------------------
# the block searches against the scalar rule

# (kind, q, n, ap_k or d) of the windows below; hj (2, 4) and (2, 5) hold
# 175 and 781 lines, more than the first block's 128
_WINDOWS = [("hj", 2, 2, None), ("hj", 2, 4, 1), ("hj", 3, 2, None),
            ("phj", 2, 2, 1), ("phj", 3, 3, 1), ("phj", 2, 2, 2),
            ("hj", 1, 2, None), ("hj", 1, 3, 1), ("phj", 1, 2, 1),
            ("hj", 2, 4, None), ("hj", 2, 5, None)]


def _point(kind, q, n, third, key):
    return LocatedWord(q, key) if kind == "hj" else PhjPoint._of(q, n, third, key)


def _scalar_color(coloring, table):
    """Color a word or grid point through h_project or m_project and
    Coloring.color_of; None past the table or the coloring's bound."""

    def color(point):
        project = h_project if isinstance(point, LocatedWord) else m_project
        try:
            v = project(point, table)
        except OutOfRangeError:
            return None
        return coloring.color_of(v) if v < coloring.bound else None

    return color


@pytest.fixture(scope="module")
def table_30():
    return build_table(30)  # 16 ranks: many words and points leave it


@pytest.mark.parametrize("kind, q, n, third", _WINDOWS + [("hj", 64, 2, None)])
def test_window_vertex_colors_match_projections(kind, q, n, third, table_30, table_100k):
    """word_coloring and point_coloring color every vertex of a whole
    window as its scalar
    projection does, uncolorable (0) past the table or the bound.  The
    table of limit 2 holds ranks 0 and 1 only: a word with letter 0 at
    position 2 is colorable, one with letter 1 there is not."""
    window = (_hj_window if kind == "hj" else _phj_window)(q, n, third)
    seen = set()
    tables = ((build_table(2), 2), (table_30, 16), (table_100k, 2), (table_100k, 12))
    for table, bound in tables:
        c = random_coloring(q + n, 3, bound)
        got = _vertex_colors(c, window, table, kind)
        want = _scalar_color(c, table)
        for key, color in got.items():
            assert color == (want(_point(kind, q, n, third, key)) or 0), key
        seen.update(got.values())
    # with q = 1 every vertex projects to the identity rank 1
    assert (0 in seen and len(seen) > 1) if q > 1 else 0 not in seen


@pytest.mark.parametrize("kind, q, n, third", _WINDOWS)
def test_line_searches_match_the_scalar_rule(kind, q, n, third, table_30, table_100k):
    """hj_search and phj_search agree with oracles.least_monochromatic over
    the same lines, colored one point at a time through the projections:
    status, nodes, skips, and the hit line's group, points and color, for
    two seeded colorings of [0, 10) with r = 2 and 3 on two tables and one
    that colors nothing, at budgets 0, 1, the line count and None.  The
    hit's alpha or base point is checked against its line: each word is
    alpha off the variable positions, each point a substitution of the
    base."""
    gen = _hj_lines if kind == "hj" else _phj_lines
    count = sum(1 for _ in gen(q, n, third))
    colorings = [random_coloring(100 * r + seed, r, 10) for r in (2, 3) for seed in (0, 1)]
    for table, c, budget in itertools.product(
            (table_30, table_100k), colorings + [random_coloring(0, 2, 1)], (0, 1, count, None)):
        cands = ((group, [_point(kind, q, n, third, k) for k in keys])
                 for group, keys in gen(q, n, third))
        status, hit, color, nodes, skipped = oracles.least_monochromatic(
            cands, _scalar_color(c, table), budget)
        if kind == "hj":
            rep = hj_search(q, word_coloring(c, table), n, ap_k=third, node_budget=budget)
            got = hit and ((rep.gamma, rep.family_set), list(rep.line))
        else:
            rep = phj_search(q, c.r, third, n, point_coloring(c, table), node_budget=budget)
            got = hit and (rep.gamma, list(rep.line))
        assert (rep.status, rep.nodes, rep.skipped) == (status, nodes, skipped)
        assert (got, rep.color) == (hit, color)
        if hit and kind == "hj":
            variable = set(rep.gamma) | set(rep.family_set or ())
            assert rep.alpha.domain.isdisjoint(variable)
            for w in rep.line:
                assert set(rep.alpha.letters) == {a for a in w.letters if a[0] not in variable}
        elif hit:
            subs = itertools.product(range(1, q + 1), repeat=third)
            assert [phj_substitute(rep.point, rep.gamma, xs) for xs in subs] == list(rep.line)


def test_search_ending_early_fills_one_block(table_100k):
    """A search that ends at its first line fills only its first block of
    the window, not the window's 4^10 - 3^10 lines."""
    _hj_window.cache_clear()
    c = random_coloring(0, 2, 5000)
    rep = hj_search(2, word_coloring(c, table_100k), 10, node_budget=2000)
    assert (rep.status, rep.nodes) == ("witness", 1)
    assert len(_hj_window(2, 10, None).edges) <= 128


def test_threshold_edges_after_a_search():
    """A window that a search filled in part, over two blocks, gives the
    threshold the edges of its whole line generator: mapped back to keys,
    they are its lines, in order."""
    _hj_window.cache_clear()
    assert hj_search(2, _UNCOLORABLE, 4, node_budget=150).nodes == 150
    window = _hj_window(2, 4, None)
    assert len(window.edges) == 150
    edges = window.fill()
    assert [[window.keys[v] for v in edge] for edge in edges.tolist()] == [
        line for _, line in _hj_lines(2, 4, None)]
    assert hj_threshold(2, 2, 4) == 2


def test_interrupted_fill_empties_the_window():
    """An exception inside a fill leaves an empty window, which fills
    again from the first line."""
    raised = []

    def lines():
        for i, line in enumerate(_hj_lines(2, 3, None)):
            if i == 20 and not raised:
                raised.append(i)
                raise KeyboardInterrupt
            yield line

    window, fresh = (_Window(src, 2) for src in (lines, lambda: _hj_lines(2, 3, None)))
    with pytest.raises(KeyboardInterrupt):
        window.fill(30)
    assert (len(window.edges), window.keys, window.groups) == (0, [], [])
    window.fill()
    fresh.fill()
    assert window.keys == fresh.keys
    assert np.array_equal(window.edges, fresh.edges)
    assert window.search(_UNCOLORABLE, None)[:3] == ("exhausted", 37, 37)
