"""Colorings: constructors, documents, avoiding-word search, provenance rebuild."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from sqstar import (
    EnumerationCapError,
    OutOfDomainError,
    ResourceBudgetError,
    SchemaViolationError,
    avoiding_word,
    from_file,
    from_provenance,
    periodic_coloring,
    random_coloring,
)
from sqstar import colorings, ground
from sqstar.colorings import Coloring, coloring_from_doc


def test_random_coloring_refuses_colors_past_int32():
    # checked before the draw, which would otherwise fail inside numpy
    with pytest.raises(ValueError, match=r"need 1\.\.2147483647 colors, got 2147483648"):
        random_coloring(1, 2**31, 10)


def test_random_deterministic():
    a = random_coloring(42, 3, 1000)
    b = random_coloring(42, 3, 1000)
    assert np.array_equal(a.assignment, b.assignment)
    c = random_coloring(43, 3, 1000)
    assert not np.array_equal(a.assignment, c.assignment)
    assert set(np.unique(a.assignment)) <= {1, 2, 3}
    assert a.provenance == "random:pcg64:seed=42,r=3,bound=1000"


def test_periodic():
    c = periodic_coloring(2, [1, 2], 10)
    assert c.r == 2
    assert c.color_of(7) == 2
    assert c.color_of(6) == 1
    assert [c.color_of(i) for i in range(4)] == [1, 2, 1, 2]
    assert repr(c) == "Coloring(r=2, bound=10, 'periodic:q=2,map=1;2,bound=10')"
    with pytest.raises(ValueError):
        periodic_coloring(2, [1], 10)
    with pytest.raises(ValueError):
        periodic_coloring(2, [0, 1], 10)


def test_color_of_domain():
    c = random_coloring(0, 2, 50)
    with pytest.raises(OutOfDomainError):
        c.color_of(50)
    with pytest.raises(OutOfDomainError):
        c.color_of(-1)


def test_file_roundtrip(tmp_path):
    # the document is named by its path and digest, not by the coloring it
    # was written from, nor by any provenance key it claims
    c = random_coloring(5, 4, 200)
    path = tmp_path / "c.json"
    oracles.write_coloring(path, c.r, c.assignment)
    d = from_file(str(path))
    assert d.r == 4 and d.bound == 200
    assert np.array_equal(c.assignment, d.assignment)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert d.provenance == f"file:{path}#sha256={digest}"
    for claim in (c.provenance, 7, None):
        path.write_text(json.dumps({"r": 2, "bound": 3, "colors": [1, 1, 1],
                                    "provenance": claim}))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert from_file(str(path)).provenance == f"file:{path}#sha256={digest}"


def test_file_provenance_is_absolute(tmp_path, monkeypatch):
    oracles.write_coloring(tmp_path / "c.json", 2, [1, 2, 1])
    monkeypatch.chdir(tmp_path)
    c = from_file("c.json")
    digest = hashlib.sha256((tmp_path / "c.json").read_bytes()).hexdigest()
    assert c.provenance == f"file:{tmp_path / 'c.json'}#sha256={digest}"
    monkeypatch.chdir(tmp_path.parent)
    assert from_provenance(c.provenance).assignment.tolist() == [1, 2, 1]
    # a file:PATH with no digest still reads the document
    assert from_provenance(f"file:{tmp_path / 'c.json'}").provenance == c.provenance


def test_file_provenance_digest_names_the_bytes(tmp_path):
    path = tmp_path / "c.json"
    oracles.write_coloring(path, 2, [1, 2, 1])
    prov = from_file(str(path)).provenance
    oracles.write_coloring(path, 2, [2, 2, 1])  # another valid coloring
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    with pytest.raises(SchemaViolationError, match=f"has SHA-256 {digest}, not "):
        from_provenance(prov)
    with pytest.raises(SchemaViolationError):
        from_provenance(f"file:{path}#sha256=")
    assert from_provenance(f"file:{path}#sha256={digest}").assignment.tolist() == [2, 2, 1]


def test_file_schema_violations(tmp_path):
    path = str(tmp_path / "bad.json")

    def dump(doc):
        with open(path, "w") as fh:
            json.dump(doc, fh)

    dump({"r": 2, "bound": 3})
    with pytest.raises(SchemaViolationError):
        from_file(path)
    dump({"r": 2, "bound": 3, "colors": [1, 2]})
    with pytest.raises(SchemaViolationError):
        from_file(path)
    dump({"r": 2, "bound": 3, "colors": [1, 2, 3]})
    with pytest.raises(SchemaViolationError):
        from_file(path)
    dump({"r": "2", "bound": 3, "colors": [1, 2, 1]})
    with pytest.raises(SchemaViolationError):
        from_file(path)
    Path(path).write_text("{not json")
    with pytest.raises(SchemaViolationError):
        from_file(path)
    Path(path).write_bytes(b"\xff\xfe")  # not UTF-8
    with pytest.raises(SchemaViolationError):
        from_file(path)
    for doc in (
        {"r": True, "bound": 2, "colors": [True, True]},  # bool is not an integer here
        {"r": 2, "bound": True, "colors": [1]},
        {"r": 2, "bound": 2, "colors": [1, True]},
        {"r": 2, "bound": 0, "colors": []},
        {"r": 2**40, "bound": 2, "colors": [2**40, 1]},  # colors are int32
    ):
        dump(doc)
        with pytest.raises(SchemaViolationError):
            from_file(path)
    dump({"r": 2, "bound": 3, "colors": [1, 2, 1]})
    assert from_file(path).color_of(1) == 2


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring(0, 5, [1] * 5, "x")
    with pytest.raises(ValueError):
        Coloring(2, 5, [1, 2, 3, 1, 1], "x")
    with pytest.raises(ValueError):
        Coloring(2, 5, [1, 2], "x")
    with pytest.raises(ValueError):
        Coloring(2**31, 2, [2**31, 1], "x")  # colors are int32
    with pytest.raises(ValueError):
        periodic_coloring(2, [1, 2**31], 4)
    assert Coloring(2**31 - 1, 1, [2**31 - 1], "x").color_of(0) == 2**31 - 1


def test_avoiding_word():
    path = [(0, 1), (1, 2)]
    assert avoiding_word(3, path, 2)[0] == (1, 2, 1)
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert avoiding_word(3, triangle, 2)[0] is None
    assert avoiding_word(3, triangle, 3)[0] == (1, 2, 3)
    assert avoiding_word(4, [], 5)[0] == (1, 1, 1, 1)
    assert avoiding_word(0, [], 2)[0] == ()
    # one vertex is monochromatic under every word; repeats count once
    assert avoiding_word(3, [(1,)], 2)[0] is None
    assert avoiding_word(3, [(1, 1)], 3)[0] is None
    assert avoiding_word(2, [(0, 1, 1)], 2)[0] == (1, 2)
    for bad in ([(0, 3)], [(-1, 0)], [()], [(1,), (7,)]):
        with pytest.raises(ValueError):
            avoiding_word(3, bad, 2)
    with pytest.raises(ValueError):
        avoiding_word(3, path, 0)
    # vertex v uses at most color v + 1, so r past the vertex count changes
    # nothing and allocates nothing per color
    cases = [(3, path), (3, triangle), (4, []), (0, []), (3, [(1,)]), (3, [(1, 1)]),
             (2, [(0, 1, 1)])]
    for size, edges in cases:
        assert avoiding_word(size, edges, 10**11) == avoiding_word(size, edges, max(size, 1))


def test_avoiding_word_cap_counts_nodes():
    # the triangle with 2 colors: 1 node for vertex 0, 2 for vertex 1 and
    # 2 for vertex 2, then vertex 0 has no other color to try
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert avoiding_word(3, triangle, 2, cap=5)[0] is None
    with pytest.raises(EnumerationCapError):
        avoiding_word(3, triangle, 2, cap=4)


def test_avoiding_word_is_the_least_avoider():
    # breaking color symmetry loses nothing: the least avoiding word of all
    # r**size words is the least one whose colors first appear in order
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(150):
        size = int(rng.integers(1, 9))
        r = int(rng.integers(1, 4))
        edges = [
            tuple(int(v) for v in rng.choice(size, int(rng.integers(1, min(size, 4) + 1)),
                                             replace=False))
            for _ in range(int(rng.integers(0, 12)))
        ]
        configs = [tuple(sorted(v + 1 for v in e)) for e in edges]
        assert avoiding_word(size, edges, r)[0] == oracles.avoider_coloring(configs, r, size)
        assert avoiding_word(size, edges, 10**11) == avoiding_word(size, edges, size)


def test_avoid_names_the_last_edge_its_refutation_charged():
    # the triangle is charged (vertex 2 meets edges 2 and 1), the edge
    # (0, 1, 2) after it never blocks; a single vertex refutes at once
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert avoiding_word(3, triangle + [(0, 1, 2)], 2, 10) == (None, 2)
    assert avoiding_word(3, [(0, 1, 2)] + triangle, 2, 10) == (None, 3)
    assert avoiding_word(4, [(0, 3), (2,), (1,), (0, 1)], 2, 10) == (None, 1)
    assert avoiding_word(3, triangle, 3, 10) == ((1, 2, 3), None)
    rng = np.random.Generator(np.random.PCG64(47))
    refuted = []
    for _ in range(300):
        size = int(rng.integers(2, 9))
        r = int(rng.integers(2, 4))
        edges = [
            tuple(int(v) for v in rng.choice(size, int(rng.integers(2, min(size, 3) + 1)),
                                             replace=False))
            for _ in range(int(rng.integers(0, 5 * size)))
        ]
        if rng.random() < 0.1:
            edges.insert(int(rng.integers(0, len(edges) + 1)), (int(rng.integers(0, size)),))
        word, k = avoiding_word(size, edges, r, 10**6)
        assert word == avoiding_word(size, edges, r)[0]
        if word is None:  # the edges up to k refute alone; k is an edge
            configs = [tuple(sorted(v + 1 for v in e)) for e in edges[:k + 1]]
            assert 0 <= k < len(edges)
            assert oracles.avoider_coloring(configs, r, size) is None
            refuted.append(len(edges[k]))
        else:
            assert k is None
    assert 50 <= refuted.count(2) + refuted.count(3) <= 200 and 1 in refuted


def test_backjumping_keeps_the_chronological_word_in_fewer_nodes():
    """avoiding_word against plain chronological backtracking, which shares no
    package code, over seeded hypergraphs of 2-3 vertex edges on up to 9
    vertices: the same word, a refutation exactly when no word of all
    r**size avoids, whose edges up to k refute alone, never more nodes,
    and fewer in some cases (with no single-vertex edge, only a jump
    saves nodes)."""
    rng = np.random.Generator(np.random.PCG64(2601))
    refuted = fewer = 0
    for _ in range(3000):
        size = int(rng.integers(2, 10))
        r = int(rng.integers(2, 4))
        edges = [
            tuple(int(v) for v in rng.choice(size, int(rng.integers(2, min(size, 3) + 1)),
                                             replace=False))
            for _ in range(int(rng.integers(0, 3 * size)))
        ]
        want, nodes = oracles.chronological_word(size, edges, r)
        word, k = avoiding_word(size, edges, r, nodes)  # at most the reference's nodes
        assert word == want, (size, edges, r)
        if word is None:  # edges[:k + 1] refute, so all the edges do
            configs = [tuple(sorted(v + 1 for v in e)) for e in edges[:k + 1]]
            assert oracles.avoider_coloring(configs, r, size) is None
            refuted += 1
        else:
            configs = [tuple(sorted(v + 1 for v in e)) for e in edges]
            assert word == oracles.avoider_coloring(configs, r, size)
        try:
            avoiding_word(size, edges, r, nodes - 1)
            fewer += 1
        except EnumerationCapError:
            pass
    assert 200 <= refuted <= 1000 and fewer >= 100, (refuted, fewer)


def test_from_provenance_random():
    a = random_coloring(9, 2, 77)
    b = from_provenance(a.provenance)
    assert np.array_equal(a.assignment, b.assignment)
    assert (b.r, b.bound) == (2, 77)


def test_from_provenance_periodic():
    a = periodic_coloring(3, [1, 2, 2], 30)
    b = from_provenance(a.provenance)
    assert np.array_equal(a.assignment, b.assignment)
    # the short descriptor forms, with the bound supplied by the caller
    c = from_provenance("periodic:q=3,r=2", 30)
    assert np.array_equal(c.assignment, periodic_coloring(3, [1, 2, 1], 30).assignment)
    d = from_provenance("random:seed=9,r=2", 77)
    assert d.provenance == random_coloring(9, 2, 77).provenance


def test_from_provenance_periodic_r_form():
    # the r form records itself, not a q-long map, and builds only
    # min(q, bound) colors, so a huge period costs nothing
    c = from_provenance("periodic:q=10000000,r=2", 10)
    assert c.provenance == "periodic:q=10000000,r=2,bound=10"
    assert (c.r, c.bound) == (2, 10)
    assert c.assignment.tolist() == [1, 2] * 5
    back = from_provenance(c.provenance)
    assert back.provenance == c.provenance
    assert np.array_equal(back.assignment, c.assignment)
    # n -> (n mod q) mod r + 1, with r the colors actually used, min(q, r)
    for q, r, bound in ((3, 5, 7), (4, 3, 11), (5, 2, 3), (1, 1, 4)):
        want = [(n % q) % r + 1 for n in range(bound)]
        got = from_provenance(f"periodic:q={q},r={r},bound={bound}")
        assert got.assignment.tolist() == want, (q, r, bound)
        assert got.r == min(q, r)
        mapped = periodic_coloring(q, [i % r + 1 for i in range(q)], bound)
        assert np.array_equal(mapped.assignment, got.assignment)
        assert from_provenance(mapped.provenance).provenance == mapped.provenance


def test_from_provenance_unknown():
    with pytest.raises(SchemaViolationError):
        from_provenance("enumerated:r=2,bound=3,index=0")
    with pytest.raises(FileNotFoundError):
        from_provenance("file:/nowhere")
    for bad in (
        "random:seed=1,r=2",  # no bound anywhere
        "random:seed=1,r=2,bound=9,extra=1",
        "random:seed=1,seed=2,r=2,bound=9",
        "random:seed=1,r,bound=9",
        "random:seed=-1,r=2,bound=9",
        "periodic:q=2,bound=9",
        "periodic:q=2,r=2,map=1;2,bound=9",
        "periodic:q=2,r=0,bound=9",
        "periodic:q=0,r=2,bound=9",
        "periodic:q=2,map=1;x,bound=9",
        "periodic:q=2,map=1;2;3,bound=9",
        "periodic:q=2,map=1;99999999999,bound=9",
    ):
        with pytest.raises(SchemaViolationError):
            from_provenance(bad)


def test_doc_rejects_non_object():
    with pytest.raises(SchemaViolationError):
        coloring_from_doc([1, 2, 3], "file:x")
    assert coloring_from_doc({"r": 2, "bound": 1, "colors": [2]}, "file:x").provenance == "file:x"


@pytest.mark.parametrize("desc", [
    "random:pcg64:seed=0,r=2,bound=10000000000000",
    "periodic:q=3,r=2,bound=10000000000000",
    "periodic:q=2,map=1;2,bound=10000000000000",
])
def test_from_provenance_refuses_a_bound_past_the_memory_budget(desc, monkeypatch):
    # refused before the build, counted at 8 bytes a rank
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="coloring bound 10000000000000 needs "
                           "~80000000000000 bytes for its colors, budget is 2147483648"):
            from_provenance(desc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(ResourceBudgetError):
        from_provenance(desc.rpartition(",")[0], ground.DEFAULT_MAX_BYTES // 8 + 1)
    # a bound of 1000 needs 8000 bytes: built at that budget, refused one below
    small = desc.replace("10000000000000", "1000")
    monkeypatch.setattr(ground, "DEFAULT_MAX_BYTES", 8000)
    assert from_provenance(small).bound == 1000
    monkeypatch.setattr(ground, "DEFAULT_MAX_BYTES", 7999)
    with pytest.raises(ResourceBudgetError, match="coloring bound 1000 needs ~8000 bytes "
                       "for its colors, budget is 7999"):
        from_provenance(small)


@pytest.mark.parametrize("desc, per_rank", [
    ("random:seed=0,r=2", 4),
    ("periodic:q=3,map=1;2;2", 4),
    ("periodic:q=3,r=2", 4),
    ("periodic:q=10000000,r=2", 8),  # the pattern, then its tiled copy
])
def test_descriptor_build_peak_per_rank(desc, per_rank):
    """Traced peak of a 10^6-rank build (numpy 2.4): 4 bytes a rank for
    random, map= and a short r= period, 8 for an r= period past the
    bound (12 and 20 while the pattern was int64); the memory guard
    counts 8."""
    from_provenance(desc, 1000)
    tracemalloc.start()
    try:
        c = from_provenance(desc, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.assignment.dtype == np.int32
    assert peak <= per_rank * 10**6 + 20_000 and per_rank <= colorings._PEAK_BYTES_PER_RANK
