"""Colorings: constructors, documents, avoiding-word search, provenance rebuild."""

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from sqstar import (
    EnumerationCapError,
    OutOfDomainError,
    SchemaViolationError,
    avoiding_word,
    from_file,
    from_provenance,
    periodic_coloring,
    random_coloring,
    to_file,
)
from sqstar.colorings import Coloring, coloring_from_doc


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
    c = random_coloring(5, 4, 200)
    path = str(tmp_path / "c.json")
    to_file(c, path)
    d = from_file(path)
    assert d.r == 4 and d.bound == 200
    assert np.array_equal(c.assignment, d.assignment)
    assert d.provenance == c.provenance


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


def test_avoiding_word():
    path = [(0, 1), (1, 2)]
    assert avoiding_word(3, path, 2) == (1, 2, 1)
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert avoiding_word(3, triangle, 2) is None
    assert avoiding_word(3, triangle, 3) == (1, 2, 3)
    assert avoiding_word(4, [], 5) == (1, 1, 1, 1)
    assert avoiding_word(0, [], 2) == ()
    # one vertex is monochromatic under every word; repeats count once
    assert avoiding_word(3, [(1,)], 2) is None
    assert avoiding_word(3, [(1, 1)], 3) is None
    assert avoiding_word(2, [(0, 1, 1)], 2) == (1, 2)
    for bad in ([(0, 3)], [(-1, 0)], [()], [(1,), (7,)]):
        with pytest.raises(ValueError):
            avoiding_word(3, bad, 2)
    with pytest.raises(ValueError):
        avoiding_word(3, path, 0)


def test_avoiding_word_cap_counts_nodes():
    # the triangle with 2 colors: 1 node for vertex 0, 2 for vertex 1 and
    # 2 for vertex 2, then vertex 0 has no other color to try
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert avoiding_word(3, triangle, 2, cap=5) is None
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
        assert avoiding_word(size, edges, r) == oracles.avoider_coloring(configs, r, size)


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


def test_from_provenance_unknown():
    with pytest.raises(SchemaViolationError):
        from_provenance("enumerated:r=2,bound=3,index=0")
    with pytest.raises(SchemaViolationError):
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
    ):
        with pytest.raises(SchemaViolationError):
            from_provenance(bad)


def test_doc_rejects_non_object():
    with pytest.raises(SchemaViolationError):
        coloring_from_doc([1, 2, 3])
