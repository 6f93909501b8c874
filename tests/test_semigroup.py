"""Induced product: worked values, law checks, monomial evaluation."""

import functools
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from sqstar import (
    FpF,
    GroundTable,
    OutOfRangeError,
    ResourceBudgetError,
    build_table,
    eval_monomial,
    generate_configuration,
    load_cache,
    power,
    save_cache,
    star,
    star_many,
    verify_laws,
)
from sqstar import semigroup


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
    # ranks whose members multiply to exactly the limit: 100000 = 250 * 400
    t = table_100k
    m, n = t.rank(250), t.rank(400)
    with pytest.raises(OutOfRangeError, match="product 100000 exceeds table limit 100000"):
        star(m, n, t)
    assert star(m, n - 1, t) == t.count_below(250 * t.element(n - 1))


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
    # the 0-th power looks up no member, even past the table
    assert power(t.size + 5, 0, t) == 1
    # squaring keeps huge exponents cheap, and 2**(10**18) is never formed
    t0 = time.perf_counter()
    assert power(1, 10**18, t) == 1
    assert power(0, 10**18, t) == 0
    with pytest.raises(OutOfRangeError):
        power(2, 10**18, t)
    assert time.perf_counter() - t0 < 0.5


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
    # a factor of rank 0 gives 0 before any member is looked up or any
    # product formed, wherever it stands
    assert eval_monomial([(0, 1), (2, 100)], t) == 0
    assert eval_monomial([(2, 100), (0, 1)], t) == 0
    assert eval_monomial([(10**9, 1), (0, 1)], t) == 0
    assert eval_monomial([(0, 0), (2, 1)], t) == 2
    # every exponent is checked before that rule and before any lookup
    with pytest.raises(ValueError):
        eval_monomial([(10**9, 1), (2, -1)], t)
    with pytest.raises(ValueError):
        eval_monomial([(0, 1), (2, -1)], t)
    with pytest.raises(OutOfRangeError):
        eval_monomial([(10**9, 1), (2, 1)], t)


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


def test_verify_laws_counts_on_1m(table_1m):
    # counts of the unblocked check, pinned before its associativity
    # triples were taken in blocks of m rows
    counts = [(c.checked, c.skipped) for c in verify_laws(100, table_1m).checks]
    assert counts == [(10201, 0), (101, 0), (101, 0), (10201, 0), (564_154, 466_147)]


def test_verify_laws_first_counterexample(monkeypatch):
    # products equal to 400 get the next rank; the unblocked check met
    # (2, 7, 20) first in C order, and so must the blocked one
    table = build_table(1000)
    honest = GroundTable.count_below_many

    def corrupt(self, xs):
        out = honest(self, xs)
        out[np.asarray(xs) == 400] += 1
        return out

    monkeypatch.setattr(GroundTable, "count_below_many", corrupt)
    checks = verify_laws(20, table).checks
    assert (checks[3].name, checks[3].counterexample) == ("multiplicativity", (7, 20))
    assoc = checks[4]
    assert (assoc.checked, assoc.skipped, assoc.counterexample) == (3426, 5835, (2, 7, 20))


def test_verify_laws_counterexample_in_the_last_block(monkeypatch):
    # star(19, 9) (37 * 16 = 592) gets the next rank.  Twice 592 passes
    # the limit, and 37 has no factor pair of members above 1, so only
    # triples (19, k, j) with s_k * s_j = 16 see the fault: all in the last
    # associativity block (m = 16..20), first (19, 2, 5) in C order
    table = build_table(1000)
    honest = semigroup.star_many

    def faulty(ms, ns, t):
        ranks, valid = honest(ms, ns, t)
        ms, ns = np.broadcast_arrays(ms, ns)
        ranks[(ms == 19) & (ns == 9)] += 1
        return ranks, valid

    monkeypatch.setattr(semigroup, "star_many", faulty)
    assoc = verify_laws(20, table).checks[-1]
    assert 20 // semigroup._LAW_ROWS * semigroup._LAW_ROWS == 16
    mul = oracles.faulty_star(1000, pair_fault={(19, 9): star(19, 9, table) + 1})
    assert oracles.associativity_oracle(20, mul, 1000) == (3426, 5835, (19, 2, 5))
    assert (assoc.checked, assoc.skipped, assoc.counterexample) == (3426, 5835, (19, 2, 5))


def _fault_pair_3_5(monkeypatch, fault):
    """Route verify_laws through a star_many that applies fault(ranks,
    valid, at) to its answers, at marking the pair (3, 5)."""
    honest = semigroup.star_many

    def faulty(ms, ns, table):
        ranks, valid = honest(ms, ns, table)
        ms, ns = np.broadcast_arrays(ms, ns)
        fault(ranks, valid, (ms == 3) & (ns == 5))
        return ranks, valid

    monkeypatch.setattr(semigroup, "star_many", faulty)


def test_verify_laws_reports_a_wrong_rank(monkeypatch, table_100k):
    def wrong_rank(ranks, valid, at):
        ranks[at] += 1

    _fault_pair_3_5(monkeypatch, wrong_rank)
    rep = verify_laws(10, table_100k)
    assert not rep.ok
    comm = rep.checks[0]
    assert (comm.name, comm.checked, comm.skipped) == ("commutativity", 121, 0)
    assert comm.counterexample == (3, 5)
    assert "commutativity: FAIL at (3, 5)" in str(rep)


def test_verify_laws_reports_a_one_sided_range(monkeypatch, table_100k):
    # (3, 5) alone is marked out of range while (5, 3) is in range: the law
    # is defined at (5, 3) and fails there
    def out_of_range(ranks, valid, at):
        ranks[at] = 0
        valid[at] = False

    _fault_pair_3_5(monkeypatch, out_of_range)
    comm = verify_laws(10, table_100k).checks[0]
    assert (comm.name, comm.checked, comm.skipped) == ("commutativity", 120, 1)
    assert comm.counterexample == (5, 3)


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
    # a uint64 rank at or above 2**63 is past the table too, not negative
    for big in (2**63, 2**63 + 1, 2**64 - 1):
        with pytest.raises(OutOfRangeError):
            star(big, 1, table_100k)
        with pytest.raises(OutOfRangeError):
            star_many(np.array([big], dtype=np.uint64), [1], table_100k)
        with pytest.raises(OutOfRangeError):
            star_many([1], np.array([3, big], dtype=np.uint64), table_100k)


def test_star_many_past_the_table_message(table_100k):
    # the full message of a rank past the table, in ms, in ns, and as a
    # uint64 rank above 2**63
    t = table_100k
    size, limit = t.size, t.limit
    big = 2**63 + 5
    for ms, ns, rank in [
        ([size + 2, 3], [1], size + 2),
        ([1], [4, size], size),
        (np.array([big], dtype=np.uint64), [1], big),
        ([1], np.array([3, big], dtype=np.uint64), big),
    ]:
        with pytest.raises(OutOfRangeError) as exc:
            star_many(ms, ns, t)
        assert str(exc.value) == f"rank {rank} exceeds table size {size} (limit {limit})"


def test_star_many_on_an_empty_broadcast(table_100k):
    # [] is float64 to numpy; every empty broadcast answers empty int64
    # ranks and bool valid of its shape
    t = table_100k
    empty = np.array([], dtype=np.int64)
    for ms, ns, shape in [
        ([], [], (0,)),
        ([], 3, (0,)),
        (np.array([], dtype=np.uint64), [], (0,)),
        ([], [[1], [2]], (2, 0)),
        (np.empty((2, 0), dtype=np.int64), [[1], [2]], (2, 0)),
        (np.zeros((0, 3)), np.arange(3), (0, 3)),
    ]:
        ranks, valid = star_many(ms, ns, t)
        assert (ranks.shape, ranks.dtype, valid.shape, valid.dtype) == (shape, np.int64, shape, bool)
    # every given rank is still checked, with star's messages
    with pytest.raises(ValueError, match="rank must be nonnegative"):
        star_many([-1], empty, t)
    with pytest.raises(OutOfRangeError) as exc:
        star_many(empty, [t.size], t)
    assert str(exc.value) == f"rank {t.size} exceeds table size {t.size} (limit {t.limit})"


def test_star_many_on_an_empty_broadcast_selects_no_member():
    t = build_table(10**6)
    ranks, valid = star_many(np.array([], dtype=np.int64), [t.size - 1], t)
    assert ranks.shape == valid.shape == (0,)
    assert t._ready == 0 and t._known == 0


def test_star_many_ranks_every_chunk_through_bulk_rank(monkeypatch, table_100k):
    # a fault injected through GroundTable.count_below_many shows in every
    # chunk: star_many ranks each chunk's products there and nowhere else
    t = table_100k
    rng = np.random.Generator(np.random.PCG64(5))
    ms = rng.integers(0, 60, 2 * STEP + 7)  # members up to 145: every product in range
    ns = rng.integers(0, 60, 2 * STEP + 7)
    honest_ranks, honest_valid = star_many(ms, ns, t)
    assert honest_valid.all()
    honest, calls = GroundTable.count_below_many, []

    def corrupt(self, xs):
        calls.append(np.asarray(xs).size)
        return honest(self, xs) + 1

    monkeypatch.setattr(GroundTable, "count_below_many", corrupt)
    ranks, valid = star_many(ms, ns, t)
    assert calls == [STEP, STEP, 7] and valid.all()
    for lo in range(0, ms.size, STEP):
        assert np.array_equal(ranks[lo : lo + STEP], honest_ranks[lo : lo + STEP] + 1), lo


def test_star_many_refuses_non_integer_ranks():
    # as star(2.7, 3) does, instead of truncating 2.7 to rank 2
    t = build_table(1000)
    with pytest.raises(TypeError):
        star(2.7, 3, t)
    with pytest.raises(TypeError):
        star_many([2.7], [3], t)
    with pytest.raises(TypeError):
        star_many([2], np.array([3.0]), t)
    # bools are ranks, as operator.index(True) == 1
    ranks, valid = star_many([True, False], [3, 3], t)
    assert valid.all() and ranks.tolist() == [star(1, 3, t), star(0, 3, t)]


# ---------------------------------------------------------------------------
# the blocked star_many: chunk edges, broadcasting, dtypes, lazy fill

STEP = semigroup._STAR_STEP


def _scalar_star(t):
    @functools.cache
    def mul(m, n):
        try:
            return star(m, n, t)
        except OutOfRangeError:
            return None

    return mul


def _assert_matches_star(ms, ns, ranks, valid, t):
    mul = _scalar_star(t)
    ms, ns = np.broadcast_arrays(ms, ns)
    assert ranks.shape == valid.shape == ms.shape
    assert ranks.dtype == np.int64 and valid.dtype == bool
    for m, n, r, v in zip(ms.ravel().tolist(), ns.ravel().tolist(),
                          ranks.ravel().tolist(), valid.ravel().tolist()):
        want = mul(int(m), int(n))
        assert (v, r) == (want is not None, 0 if want is None else want), (m, n)


@pytest.mark.parametrize("size", [0, 1, STEP - 1, STEP, STEP + 1, 3 * STEP + 7])
def test_star_many_chunks_match_star(size, table_100k):
    t = table_100k
    rng = np.random.Generator(np.random.PCG64(size))
    ms = rng.integers(0, 300, size)
    ns = rng.integers(0, 300, size)
    # out-of-limit pairs on both sides of every chunk edge
    for edge in range(STEP, size, STEP):
        ms[edge - 1 : edge + 1] = ns[edge - 1 : edge + 1] = t.size - 1
    ranks, valid = star_many(ms, ns, t)
    _assert_matches_star(ms, ns, ranks, valid, t)
    if size > STEP:
        assert not valid[STEP - 1] and not valid[STEP] and valid.any()


def test_star_many_broadcasts_across_chunks(table_100k):
    t = table_100k
    col, row = np.arange(130)[:, None], np.arange(0, 280, 2)[None, :]
    assert col.size * row.size > STEP
    _assert_matches_star(col, row, *star_many(col, row, t), t)
    _assert_matches_star(row.T, col.T, *star_many(row.T, col.T, t), t)
    # 0-d against 1-d, and 0-d against 0-d
    ns = np.arange(STEP + 3) % 500
    _assert_matches_star(np.array(7), ns, *star_many(np.array(7), ns, t), t)
    ranks, valid = star_many(np.array(5), np.array(2), t)
    assert ranks.shape == valid.shape == () and (int(ranks), bool(valid)) == (9, True)


def test_star_many_uint64_and_bool_ranks(table_100k):
    t = table_100k
    rng = np.random.Generator(np.random.PCG64(11))
    ms = rng.integers(0, 400, STEP + 5).astype(np.uint64)
    ns = rng.integers(0, 400, STEP + 5).astype(np.uint64)
    _assert_matches_star(ms, ns, *star_many(ms, ns, t), t)
    flags = rng.integers(0, 2, STEP + 5).astype(bool)
    _assert_matches_star(flags.astype(np.int64), ns,
                         *star_many(flags, ns, t), t)


def test_star_many_fills_only_through_its_largest_valid_product(tmp_path):
    # every member in the first chunk (values below 2^16) of a 2^17 table:
    # pairs of large ones leave the table, pairs of small ones stay in the
    # first chunk, and only that chunk is read from the cache
    path = str(tmp_path / "t.sgt")
    save_cache(build_table(2**17), path)
    t = load_cache(path)
    big = t.count_below(65_000)
    ms = np.array([2, big, 7, big - 1, 30])
    ns = np.array([5, big, 9, big, 40])
    ranks, valid = star_many(ms, ns, t)
    assert valid.tolist() == [True, False, True, False, True]
    assert t._known == 1024 < t._words.size
    _assert_matches_star(ms, ns, ranks, valid, t)


def test_star_many_scratch_is_one_chunk(table_1m):
    """500k pairs: the answers (4.5 MB) plus chunk scratch.  Traced peak
    5.4 MB (numpy 2.4); the unblocked version read 11.1 MB."""
    rng = np.random.Generator(np.random.PCG64(0))
    ms = rng.integers(0, 2000, 500_000)
    ns = rng.integers(0, 2000, 500_000)
    star_many(ms, ns, table_1m)  # selects the members and fills the directory
    tracemalloc.start()
    try:
        star_many(ms, ns, table_1m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8_000_000


# ---------------------------------------------------------------------------
# verify_laws' associativity check against a triple-by-triple oracle


def test_verify_laws_scratch_on_1m(table_1m):
    """verify_laws(100): traced peak 4.2 MB (numpy 2.4) with the right
    side's grid built once; 3.2 MB while it was built per block of rows,
    8.7 MB when both sides were evaluated per triple."""
    verify_laws(100, table_1m)
    tracemalloc.start()
    try:
        verify_laws(100, table_1m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6_000_000


def test_verify_laws_refuses_a_range_past_the_memory_budget(table_100k, capsys):
    # refused by its first grid before anything is allocated
    t = table_100k
    need = semigroup._LAW_GRID_BYTES * 20001**2
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError) as exc:
            verify_laws(20000, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (f"limit {t.limit} needs ~{need} bytes for the laws on ranks "
                              f"0..20000, budget is {semigroup.DEFAULT_MAX_BYTES}")
    assert peak < 1_000_000 and capsys.readouterr() == ("", "")


def test_verify_laws_refuses_its_side_grids_past_the_budget(monkeypatch, table_1m):
    # range 100: the first grid passes a 2 MB budget, its side grids do not,
    # and nothing traced comes near the budget before the refusal
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_BYTES", 2_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="laws on ranks 0..100, budget is 2000000"):
            verify_laws(100, table_1m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert semigroup._LAW_GRID_BYTES * 101**2 < 2_000_000 and peak < 2_000_000
    verify_laws(40, table_1m)  # 0.38 MB estimated: under the budget


@pytest.mark.parametrize("n", [20, 50, 100, 200])
def test_verify_laws_budget_covers_its_traced_peak(table_1m, n):
    """Traced peak of verify_laws(n) against the guard's estimate (per
    first-grid entry and per side-grid entry; numpy 2.4)."""
    idx = np.arange(n + 1)
    ranks, valid = star_many(idx[:, None], idx[None, :], table_1m)
    sides = np.unique(np.where(valid, ranks, 0)).size
    verify_laws(n, table_1m)
    tracemalloc.start()
    try:
        verify_laws(n, table_1m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = (semigroup._LAW_GRID_BYTES * (n + 1) + semigroup._LAW_SIDE_BYTES * sides) * (n + 1)
    assert peak <= need + 1_100_000


def _rank_faults(rng, t, n):
    """One or two valid nonzero products of ranks 0..n, each with its rank
    moved by one."""
    s = t.members(n + 1).astype(np.int64)
    prods = np.unique(s[:, None] * s[None, :])
    prods = prods[(prods > 0) & (prods < t.limit)]
    picked = rng.choice(prods, size=min(int(rng.integers(1, 3)), prods.size), replace=False)
    return {p: -1 if t.count_below(p) + 1 >= t.size else 1 for p in picked.tolist()}


def _pair_fault(rng, t, n, out_of_range, m=None):
    """An ordered pair m != k of ranks 0..n (m given, or drawn too) with its
    product in the table, answered with the next rank, or as out of range."""
    while True:
        k = int(rng.integers(0, n + 1))
        m0 = int(rng.integers(0, n + 1)) if m is None else m
        want = _scalar_star(t)(m0, k)
        if m0 != k and want is not None and want + 1 < t.size:
            return m0, k, None if out_of_range else want + 1


def _check_against_oracle(t, n, mul):
    assoc = verify_laws(n, t).checks[-1]
    assert assoc.name == "associativity"
    got = (assoc.checked, assoc.skipped, assoc.counterexample)
    assert got == oracles.associativity_oracle(n, mul, t.limit)
    return assoc.counterexample


@pytest.mark.parametrize("limit", [1_000, 10_000, 100_000])
@pytest.mark.parametrize("n", [20, 40, 60])
def test_verify_laws_associativity_matches_oracle(monkeypatch, limit, n):
    t = build_table(limit)
    rng = np.random.Generator(np.random.PCG64([limit, n]))
    # the honest product is associative
    assert _check_against_oracle(t, n, oracles.faulty_star(limit)) is None
    found = 0

    honest_rank = GroundTable.count_below_many
    for _ in range(3):
        shift = _rank_faults(rng, t, n)

        def corrupt(self, xs, shift=shift):
            out = honest_rank(self, xs)
            xs = np.asarray(xs)
            for p, d in shift.items():
                out[xs == p] += d
            return out

        with monkeypatch.context() as mp:
            mp.setattr(GroundTable, "count_below_many", corrupt)
            mul = oracles.faulty_star(limit, rank_shift=shift)
            found += _check_against_oracle(t, n, mul) is not None

    honest_star = semigroup.star_many
    # the last fault reports a product of the absorbing rank 0 as out of
    # range, which must not read as the rank 0 it would have
    for out_of_range, m in ((False, None), (True, None), (False, None), (True, 0)):
        m0, k0, answer = _pair_fault(rng, t, n, out_of_range, m)

        def faulty(ms, ns, table, m0=m0, k0=k0, answer=answer):
            ranks, valid = honest_star(ms, ns, table)
            at = (np.asarray(ms) == m0) & (np.asarray(ns) == k0)
            ranks[at], valid[at] = (0, False) if answer is None else (answer, True)
            return ranks, valid

        with monkeypatch.context() as mp:
            mp.setattr(semigroup, "star_many", faulty)
            mul = oracles.faulty_star(limit, pair_fault={(m0, k0): answer})
            found += _check_against_oracle(t, n, mul) is not None
    assert found  # some seeded fault shows as a counterexample
