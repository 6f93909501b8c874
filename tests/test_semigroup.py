"""Induced product: worked values, law checks, monomial evaluation."""

import numpy as np
import pytest

import oracles
from sqstar import (
    FpF,
    GroundTable,
    OutOfRangeError,
    build_table,
    eval_monomial,
    generate_configuration,
    power,
    star,
    star_many,
    verify_laws,
)


def test_worked_product(table_100k):
    assert star(2, 5, table_100k) == 9


def test_small_products(table_100k):
    t = table_100k
    assert star(2, 2, t) == 3
    assert star(2, 3, t) == 5
    assert star(2, 4, t) == 7
    assert star(2, 5, t) == 9


def test_identity_and_absorber(table_100k):
    t = table_100k
    for m in range(0, 200, 7):
        assert star(1, m, t) == m
        assert star(m, 1, t) == m
        assert star(0, m, t) == 0
        assert star(m, 0, t) == 0


def test_star_out_of_range(table_100k):
    big = table_100k.size - 1
    with pytest.raises(OutOfRangeError):
        star(big, big, table_100k)


def test_power(table_100k):
    t = table_100k
    assert power(5, 0, t) == 1
    assert power(0, 3, t) == 0
    assert power(1, 9, t) == 1
    assert power(2, 1, t) == 2
    assert power(2, 2, t) == 3  # s=2, 4 has rank 3
    acc = 1
    for i in range(1, 6):
        acc = star(acc, 3, t)
        assert power(3, i, t) == acc
    with pytest.raises(ValueError):
        power(2, -1, t)
    with pytest.raises(OutOfRangeError):
        power(2, 64, t)


def test_eval_monomial_basics(table_100k):
    t = table_100k
    assert eval_monomial([], t) == 1
    assert eval_monomial([(5, 0)], t) == 1
    assert eval_monomial([(0, 2)], t) == 0
    assert eval_monomial([(2, 1), (5, 1)], t) == 9
    with pytest.raises(ValueError):
        eval_monomial([(2, -1)], t)
    with pytest.raises(OutOfRangeError):
        eval_monomial([(2, 100)], t)


def test_eval_monomial_matches_fold(table_100k):
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(200):
        k = int(rng.integers(1, 5))
        factors = [
            (int(rng.integers(1, 40)), int(rng.integers(0, 4))) for _ in range(k)
        ]
        try:
            direct = eval_monomial(factors, table_100k)
        except OutOfRangeError:
            continue
        assert direct == oracles.fold_eval(factors, table_100k)


def _finite_products(xs, table):
    return generate_configuration(FpF(len(xs)), {"xs": xs}, table)


def test_finite_products(table_100k):
    t = table_100k
    assert _finite_products([2, 5], t) == (2, 5, 9)
    assert _finite_products([1], t) == (1,)
    vals = _finite_products([2, 5, 8], t)
    assert len(vals) <= 7
    # every subset product appears: check one triple fold by hand
    assert oracles.fold_star([2, 5, 8], t) in vals


def test_finite_products_overflow_names_subset(table_100k):
    big = table_100k.size - 1
    with pytest.raises(OutOfRangeError) as ei:
        _finite_products([2, big, big], table_100k)
    # first offending subset in mask order: positions 1 and 2
    assert "[1, 2]" in str(ei.value)


def test_verify_laws_small(table_100k):
    rep = verify_laws(60, table_100k)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert names == [
        "commutativity",
        "identity",
        "absorption",
        "multiplicativity",
        "associativity",
    ]
    counts = [(c.checked, c.skipped) for c in rep.checks]
    assert counts == [(3721, 0), (61, 0), (61, 0), (3721, 0), (102_995, 123_986)]


def test_verify_laws_trivial(table_100k):
    rep = verify_laws(0, table_100k)
    assert rep.ok


def test_verify_laws_range_guard(table_100k):
    with pytest.raises(OutOfRangeError):
        verify_laws(table_100k.size, table_100k)


def test_verify_laws_catches_corrupt_ranks(monkeypatch):
    # bulk rank sends the product 4 = s_2 * s_2 (rank 3) to rank 4, so
    # star(2, 2) * 3 reaches 5 * 4 = 20 while 2 * star(2, 3) reaches 2 * 8 = 16
    table = build_table(1000)
    honest = GroundTable.count_below_many

    def corrupt(self, xs):
        out = honest(self, xs)
        out[np.asarray(xs) == 4] += 1
        return out

    monkeypatch.setattr(GroundTable, "count_below_many", corrupt)
    assoc = verify_laws(10, table).checks[-1]
    assert assoc.name == "associativity"
    assert assoc.counterexample is not None


def test_star_many(table_100k):
    rng = np.random.Generator(np.random.PCG64(3))
    ms = rng.integers(0, 2000, size=400)
    ns = rng.integers(0, 2000, size=400)
    ranks, valid = star_many(ms, ns, table_100k)
    for m, n, r, v in zip(ms, ns, ranks, valid):
        try:
            want = star(int(m), int(n), table_100k)
        except OutOfRangeError:
            assert not v
            continue
        assert v and r == want
    # broadcast inputs give the broadcast shape; ranks read 0 where not valid
    idx = np.arange(300)
    ranks, valid = star_many(idx[:, None], idx[None, :], table_100k)
    assert ranks.shape == valid.shape == (300, 300)
    assert valid.any() and not valid.all() and not ranks[~valid].any()
    flat_ranks, flat_valid = star_many(np.repeat(idx, 300), np.tile(idx, 300), table_100k)
    assert np.array_equal(ranks.ravel(), flat_ranks)
    assert np.array_equal(valid.ravel(), flat_valid)
    # bad ranks raise as in star, not index from the end or past the table
    with pytest.raises(ValueError):
        star_many([-3], [1], table_100k)
    with pytest.raises(ValueError):
        star_many([1], [-1], table_100k)
    with pytest.raises(OutOfRangeError):
        star_many([table_100k.size], [1], table_100k)
    with pytest.raises(OutOfRangeError):
        star_many([1], [table_100k.size], table_100k)
