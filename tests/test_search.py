"""Witness search, verification, and thresholds with their certificates."""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from sqstar import (
    Brauer,
    Deuber,
    EnumerationCapError,
    FpF,
    GeoArithmetic,
    MalformedWitnessError,
    MillikenTaylor,
    OutOfDomainError,
    OutOfRangeError,
    PhiLinear,
    PhiProduct,
    PhiProjection,
    PhiStarFold,
    PhiSum,
    PolyVdW,
    ResourceBudgetError,
    SearchBounds,
    Witness,
    avoiding_word,
    build_table,
    find_witness,
    generate_configuration,
    periodic_coloring,
    random_coloring,
    threshold,
    verify_witness,
)
from sqstar import search, semigroup
from sqstar.patterns import config_values
from sqstar.search import admitted_configs, forced_window, generators_from_tuple
from sqstar.semigroup import _VALUE_CAP, _Exact, _Saturating

FAMILIES = [
    FpF(2),
    Brauer(2),
    Deuber(1, 1),
    MillikenTaylor(1, PhiSum()),
    GeoArithmetic(1),
    PolyVdW(1, ((2,),)),
]

BOUNDS = SearchBounds(generator_max=5, value_bound=400)

# the families, and mt(2) with each of the five combination maps
SEARCH_SPECS = [pytest.param(s, id=type(s).__name__) for s in FAMILIES] + [
    pytest.param(MillikenTaylor(2, phi), id=f"MillikenTaylor2-{phi}")
    for phi in (PhiProjection(2), PhiSum(), PhiProduct(), PhiLinear((1, 2), 3), PhiStarFold())
]


def _reference_least(spec, bounds, coloring, table):
    """Unpruned rescan: first candidate, within the node budget, whose
    configuration is mono in window."""
    for tup in itertools.islice(oracles.candidate_tuples(spec, bounds), bounds.node_budget):
        gens = generators_from_tuple(spec, tup)
        try:
            cfg = generate_configuration(spec, gens, table)
        except OutOfRangeError:
            continue
        if any(v >= bounds.value_bound for v in cfg):
            continue
        colors = {coloring.color_of(v) for v in cfg}
        if len(colors) == 1:
            return gens, cfg, colors.pop()
    return None


def _exact_values(spec, gens, table):
    """The candidate's exact value stream, None once it leaves the table."""
    try:
        yield from config_values(spec, gens, table)
    except OutOfRangeError:
        yield None


def _exact_scan(spec, bounds, coloring, table):
    """(status, nodes, skipped, generators) of oracles.least_monochromatic
    over each candidate's exact value stream, one candidate at a time."""
    vb = bounds.value_bound
    candidates = ((tup, _exact_values(spec, generators_from_tuple(spec, tup), table))
                  for tup in oracles.candidate_tuples(spec, bounds))
    status, hit, _, nodes, skipped = oracles.least_monochromatic(
        candidates, lambda v: None if v is None or v >= vb else coloring.color_of(v),
        bounds.node_budget)
    return status, nodes, skipped, hit and generators_from_tuple(spec, hit[0])


def _budgets(spec, bounds):
    """bounds at node budgets 0, 1, the candidate count and None."""
    count = sum(1 for _ in oracles.candidate_tuples(spec, bounds))
    return [dataclasses.replace(bounds, node_budget=b) for b in (0, 1, count, None)]


def _assert_searches_alike(spec, bounds, coloring, table):
    """find_witness against both references; returns its report."""
    report = find_witness(table, coloring, spec, bounds)
    status, nodes, skipped, gens = _exact_scan(spec, bounds, coloring, table)
    assert (report.status, report.nodes, report.skipped_out_of_range) == (
        status, nodes, skipped)
    ref = _reference_least(spec, bounds, coloring, table)
    if ref is None:
        assert not report.found and gens is None
        return report
    assert report.witness.generators == gens == ref[0]
    assert (report.witness.configuration, report.witness.color) == ref[1:]
    assert report.witness.coloring_provenance == coloring.provenance
    assert report.witness.table_limit == table.limit
    return report


@pytest.mark.parametrize("spec", SEARCH_SPECS)
def test_least_witness_matches_unpruned_rescan(spec, table_100k):
    """The block search equals the exact one-candidate scan (status, nodes,
    skips) and the unpruned rescan (witness) on the tables of 200 and 1e5,
    at every r, with and without the identity, and at node budgets 0, 1,
    the candidate count and None."""
    for table in (build_table(200), table_100k):
        for r, identity in itertools.product((2, 3, 8), (False, True)):
            coloring = random_coloring(7 if r == 2 else 7 + r, r, 400)
            bounds = SearchBounds(generator_max=5, value_bound=400, include_identity=identity)
            for b in _budgets(spec, bounds):
                report = _assert_searches_alike(spec, b, coloring, table)
                if b.node_budget == 0:
                    assert (report.status, report.nodes) == ("budget", 0)


def test_order_ending_with_a_block():
    """FpF(1) at generator_max 129 has 128 candidates, one whole first
    block: the scan ends there, exhausted or at its budget."""
    bounds = SearchBounds(generator_max=129, value_bound=2)
    table, coloring = build_table(1000), random_coloring(1, 2, 10)
    rep = find_witness(table, coloring, FpF(1), bounds)
    assert (rep.status, rep.nodes, rep.skipped_out_of_range) == ("exhausted", 128, 128)
    rep = find_witness(table, coloring, FpF(1), dataclasses.replace(bounds, node_budget=128))
    assert (rep.status, rep.nodes) == ("budget", 128)


def test_candidates_past_the_table_are_skipped():
    # the table's 79 ranks all lie below the value bound 100, so every skip
    # is a candidate whose products leave the table, not the value window
    table = build_table(200)
    assert table.size == 79
    bounds = SearchBounds(generator_max=12, value_bound=100)
    coloring = random_coloring(1, 2, 100)
    report = find_witness(table, coloring, FpF(3), bounds)
    assert (report.status, report.nodes, report.skipped_out_of_range) == (
        "exhausted", 1331, 238)
    # every family alike, each finding a witness under the 2-coloring; on
    # the table below 30, whose 16 ranks leave generator ranks up to 20
    # past the table itself, for 400 nodes
    tiny = build_table(30)
    for spec in [p.values[0] for p in SEARCH_SPECS] + [FpF(3)]:
        for r, identity in itertools.product((2, 3, 8), (False, True)):
            coloring = random_coloring(1 if r == 2 else r, r, 100)
            bounds = SearchBounds(generator_max=12, value_bound=100, include_identity=identity)
            for b in _budgets(spec, bounds):
                report = _assert_searches_alike(spec, b, coloring, table)
                if r == 2 and b.node_budget is None and (spec, identity) != (FpF(3), False):
                    assert report.found
            bounds = SearchBounds(generator_max=20, value_bound=100, node_budget=400,
                                  include_identity=identity)
            _assert_searches_alike(spec, bounds, coloring, tiny)


def _block(spec, bounds, table):
    """find_witness' value lines and ok lines for every candidate tuple,
    evaluated as one block in the saturating arithmetic."""
    ranges = search._position_ranges(spec, bounds)
    rows = math.prod(len(r) for r in ranges)
    ar = _Saturating(table)
    cols = search._block_columns(ranges, 0, rows)
    return ar.lines(spec._values(generators_from_tuple(spec, cols), ar), rows)


@pytest.mark.parametrize("limit", [2000, 100_000])
@pytest.mark.parametrize("family, spec, params", [
    ("brauer", Brauer(2), (2,)),
    ("fpf", FpF(3), (3,)),
    ("deuber", Deuber(1, 2), (1, 2)),
    ("geo", GeoArithmetic(1), (1,)),
], ids=["brauer", "fpf", "deuber", "geo"])
def test_block_values_match_the_window_oracle(family, spec, params, limit):
    """Row by row, a block's values equal the oracle's rebuilt from a
    member list, up to the first product past the table (an oracle rank
    of table.size or more); ok is set before it and cleared from it on."""
    table = build_table(limit)
    want_rows = oracles.window_rows(family, params, 10, oracles.members_brute(limit))
    vals, ok = _block(spec, SearchBounds(generator_max=10, value_bound=1), table)
    assert vals.shape == ok.shape == (len(want_rows[0]), len(want_rows))
    past = 0
    for row, want in enumerate(want_rows):
        f = next((i for i, v in enumerate(want) if v >= table.size), len(want))
        past += f < len(want)
        assert ok[:f, row].all() and not ok[f:, row].any()
        assert vals[:f, row].tolist() == want[:f]
    assert past if limit == 2000 else not past


def test_block_search_of_a_space_past_2_63(table_100k):
    """FpF(5) at generator_max 10**4 has 9999**5 > 2**63 candidates; the
    search indexes only the blocks it reads and matches the exact scan."""
    bounds = SearchBounds(generator_max=10**4, value_bound=400, node_budget=50)
    for r in (2, 8):
        report = _assert_searches_alike(FpF(5), bounds, random_coloring(r, r, 400), table_100k)
        assert report.nodes <= 50


def test_block_powers_take_logarithmic_steps(table_100k, monkeypatch):
    """pvw exponents c**(j+1) reach 64**4 with the identity admitted: a
    power costs two products per bit of min(e, 64), a member 1 stays 1,
    and every row agrees with the exact stream."""
    products = []
    real = _Saturating.mul
    monkeypatch.setattr(_Saturating, "mul", lambda ar, p, q: products.append(1) or real(ar, p, q))
    bounds = SearchBounds(generator_max=64, value_bound=1, include_identity=True)
    vals, ok = _block(PolyVdW(1, ((1,),)), bounds, table_100k)  # s_b * 1^c
    assert ok.all() and vals[0].tolist() == [b for b in range(1, 65) for _ in range(64)]
    spec = PolyVdW(4, ((1, 2, 3, 4),))
    products.clear()
    vals, ok = _block(spec, bounds, table_100k)
    assert len(products) <= 4 * (2 * 7 + 1)
    assert ok.any() and not ok.all()
    for tup, v, o in zip(oracles.candidate_tuples(spec, bounds), vals[0], ok[0]):
        try:
            (want,) = config_values(spec, generators_from_tuple(spec, tup), table_100k)
        except OutOfRangeError:
            assert not o
            continue
        assert o and v == want


def test_block_combination_maps_saturate(table_100k):
    """mt's product and linear maps of large ranks saturate at _VALUE_CAP in
    a block, never wrapping, and stay exact for one candidate."""
    big = np.array([2**31, 5, 2**31 - 1])
    ar = _Saturating(table_100k)
    assert PhiProduct()._apply([big] * 3, ar).tolist() == [_VALUE_CAP, 125, _VALUE_CAP]
    linear = PhiLinear((10**30, 1, 2**62), 7)
    assert linear._apply([big, big, big], ar).tolist() == [_VALUE_CAP] * 3
    assert PhiLinear((0, 2**40), 3)._apply([big, big], ar).tolist() == [
        _VALUE_CAP, 5 * 2**40 + 3, _VALUE_CAP]
    assert PhiProduct()._apply([2**31] * 3, _Exact(table_100k)) == 2**93
    assert linear._apply([2**31] * 3, _Exact(table_100k)) == (10**30 + 1 + 2**62) * 2**31 + 7


def test_saturated_rows_select_no_members():
    """The rank of a saturated product, table.size, is looked up in no
    later member call: the exact stream ended at that rank, so the block
    selects only the members its rows still in range need."""
    table = build_table(10**6)
    ar = _Saturating(table)
    ar.ok = np.ones(2, dtype=bool)
    ranks = ar.rank(ar.mul(ar.member(np.array([5, 9])), np.array([1, 10**6], dtype=np.uint64)))
    assert ranks.tolist() == [5, table.size] and ar.ok.tolist() == [True, False]
    assert ar.member(ranks)[0] == table.element(5)
    assert table._ready < table.size


def test_block_scratch_does_not_grow_with_generator_max(table_100k):
    """A 2,000-node geo(1) search allocates alike at generator_max 12 and
    1,000: its blocks stop at search._BLOCK_ROWS[-1] rows.  The traced peak
    read 338 and 352 kB (numpy 2.4); one 2,000-row block would exceed
    the bound."""
    coloring = periodic_coloring(400, list(range(1, 401)), 400)  # all colors distinct
    peaks = []
    for gm in (12, 1000):
        bounds = SearchBounds(generator_max=gm, value_bound=400, node_budget=2000)
        find_witness(table_100k, coloring, GeoArithmetic(1), bounds)  # selects the members
        tracemalloc.start()
        try:
            report = find_witness(table_100k, coloring, GeoArithmetic(1), bounds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (report.status, report.nodes) == ("budget", 2000)
    assert max(peaks) < 480_000


def test_block_lines_refuse_to_pass_the_memory_budget(table_100k, monkeypatch):
    """An FpF(10) search at generator_max 3 reads blocks of 128, 256, 512
    and 128 candidates, each 1,023 stream values long; a block whose lines
    would need more than the budget raises before it is complete."""
    coloring = random_coloring(1, 2, 25_000)
    bounds = SearchBounds(generator_max=3, value_bound=25_000)
    need = semigroup._LINE_BYTES * 512 * 1023
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_BYTES", need)
    assert find_witness(table_100k, coloring, FpF(10), bounds).nodes == 1024
    monkeypatch.setattr(semigroup, "DEFAULT_MAX_BYTES", need - 1)
    message = f"a block of 512 candidates needs over {need - 1} bytes of values"
    with pytest.raises(ResourceBudgetError, match=message):
        find_witness(table_100k, coloring, FpF(10), bounds)


# first three candidate tuples, the generators of the second, and the count,
# at generator_max=3 without and with the identity
PINNED_ORDER = [
    (FpF(3), [(2, 2, 2), (2, 2, 3), (2, 3, 2)], {"xs": [2, 2, 3]}, 8, 27),
    (Brauer(2), [(2, 2), (2, 3), (3, 2)], {"x": 2, "z": 3}, 4, 9),
    (Deuber(2, 1), [(2, 2, 2), (2, 2, 3), (2, 3, 2)], {"xs": [2, 2, 3]}, 8, 27),
    (MillikenTaylor(2, PhiSum()), [(2, 2, 2), (2, 2, 3), (2, 3, 2)],
     {"xs": [2, 2, 3]}, 8, 27),
    (GeoArithmetic(1), [(2, 2, 1, 1), (2, 2, 1, 2), (2, 2, 1, 3)],
     {"b": [(2, 1)], "gamma": [2], "a": 1, "d": 2}, 36, 81),
    (PolyVdW(1, ((2,),)), [(2, 1), (2, 2), (2, 3)], {"b": [(2, 1)], "c": 2}, 6, 9),
]


@pytest.mark.parametrize("spec, first, gens, count, count_with_identity", PINNED_ORDER,
                         ids=[type(case[0]).__name__ for case in PINNED_ORDER])
def test_candidate_order_is_pinned(spec, first, gens, count, count_with_identity):
    tuples = list(oracles.candidate_tuples(spec, SearchBounds(generator_max=3, value_bound=10)))
    assert tuples[:3] == first and len(tuples) == count
    assert generators_from_tuple(spec, tuples[1]) == gens
    bounds = SearchBounds(generator_max=3, value_bound=10, include_identity=True)
    tuples = list(oracles.candidate_tuples(spec, bounds))
    ones = (1,) * (len(first[0]) - 1)
    assert tuples[:3] == [ones + (1,), ones + (2,), ones + (3,)]
    assert len(tuples) == count_with_identity


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("identity", [False, True])
def test_candidate_generators_pass_the_layout_check(spec, identity):
    # the search feeds these generators to the family unchecked
    bounds = SearchBounds(generator_max=4, value_bound=10, include_identity=identity)
    for tup in oracles.candidate_tuples(spec, bounds):
        g = generators_from_tuple(spec, tup)
        assert spec._checked(g) == g


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_witness_under_constant_coloring(spec, table_100k):
    coloring = periodic_coloring(1, [1], 400)
    report = find_witness(table_100k, coloring, spec, BOUNDS)
    assert report.found
    assert report.witness.color == 1
    assert verify_witness(report.witness, coloring, table_100k)


def test_deterministic_across_runs(table_100k):
    coloring = random_coloring(11, 3, 400)
    spec = Brauer(2)
    base = find_witness(table_100k, coloring, spec, BOUNDS)
    for _ in range(3):
        rep = find_witness(table_100k, coloring, spec, BOUNDS)
        assert rep.status == base.status
        assert rep.nodes == base.nodes
        assert rep.skipped_out_of_range == base.skipped_out_of_range
        if base.found:
            assert rep.witness.generators == base.witness.generators
            assert rep.witness.color == base.witness.color


def test_value_window_skips_everything(table_100k):
    # every Brauer(1) configuration holds its generators x, z >= 2
    coloring = periodic_coloring(1, [1], 400)
    b = SearchBounds(generator_max=4, value_bound=2)
    report = find_witness(table_100k, coloring, Brauer(1), b)
    assert report.status == "exhausted"
    assert report.skipped_out_of_range == report.nodes == 9


def test_budget_zero(table_100k):
    coloring = periodic_coloring(1, [1], 400)
    b = SearchBounds(generator_max=5, value_bound=400, node_budget=0)
    report = find_witness(table_100k, coloring, Brauer(1), b)
    assert report.status == "budget"
    assert report.nodes == 0
    assert report.witness is None
    assert not report.found


def test_budget_partial(table_100k):
    coloring = periodic_coloring(400, list(range(1, 401)), 400)
    b = SearchBounds(generator_max=5, value_bound=400, node_budget=3)
    report = find_witness(table_100k, coloring, Brauer(1), b)
    assert report.status == "budget"
    assert report.nodes == 3
    # a budget that ends exactly with the candidates still reads "budget"
    for budget, status in ((16, "budget"), (17, "exhausted")):
        b = SearchBounds(generator_max=5, value_bound=400, node_budget=budget)
        report = find_witness(table_100k, coloring, Brauer(1), b)
        assert (report.status, report.nodes) == (status, 16)


def test_exhausted_on_all_distinct_coloring(table_100k):
    # every value its own color: no configuration with two values is mono
    coloring = periodic_coloring(400, list(range(1, 401)), 400)
    report = find_witness(table_100k, coloring, Brauer(1), BOUNDS)
    assert report.status == "exhausted"
    assert report.witness is None
    assert report.nodes == 16  # 4 * 4 generator pairs


def test_include_identity(table_100k):
    coloring = periodic_coloring(2, [1, 2], 400)
    b = SearchBounds(generator_max=3, value_bound=400, include_identity=True)
    report = find_witness(table_100k, coloring, FpF(1), b)
    assert report.found
    assert report.witness.generators == {"xs": [1]}
    assert report.witness.configuration == (1,)
    assert report.nodes == 1


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(generator_max=1, value_bound=10)
    with pytest.raises(ValueError):
        SearchBounds(generator_max=2, value_bound=0)
    with pytest.raises(ValueError):
        SearchBounds(generator_max=2, value_bound=10, node_budget=-1)


def test_find_witness_validation(table_100k):
    coloring = periodic_coloring(1, [1], 100)
    with pytest.raises(ValueError):
        find_witness(table_100k, coloring, Brauer(1), BOUNDS)  # bound > domain


# ---------------------------------------------------------------------------
# verification

def _found_witness(table):
    coloring = random_coloring(3, 2, 400)
    report = find_witness(table, coloring, Brauer(2), BOUNDS)
    assert report.found
    return report.witness, coloring


def test_verify_accepts_search_output(table_100k):
    w, coloring = _found_witness(table_100k)
    assert verify_witness(w, coloring, table_100k)


def test_verify_rejects_wrong_color(table_100k):
    w, coloring = _found_witness(table_100k)
    other = 1 if w.color == 2 else 2
    tampered = Witness(
        w.spec, w.generators, w.configuration, other, w.coloring_provenance,
        w.table_limit,
    )
    assert verify_witness(tampered, coloring, table_100k) is False


def test_verify_rejects_tampered_configuration(table_100k):
    w, coloring = _found_witness(table_100k)
    cfg = list(w.configuration)
    cfg[-1] += 1
    tampered = Witness(
        w.spec, w.generators, tuple(cfg), w.color, w.coloring_provenance,
        w.table_limit,
    )
    assert verify_witness(tampered, coloring, table_100k) is False


def test_verify_malformed(table_100k):
    w, coloring = _found_witness(table_100k)
    bad_color = Witness(
        w.spec, w.generators, w.configuration, 99, w.coloring_provenance,
        w.table_limit,
    )
    with pytest.raises(MalformedWitnessError):
        verify_witness(bad_color, coloring, table_100k)
    big_cfg = Witness(
        w.spec, w.generators, w.configuration + (10**6,), w.color,
        w.coloring_provenance, w.table_limit,
    )
    with pytest.raises(MalformedWitnessError):
        verify_witness(big_cfg, coloring, table_100k)
    bad_gens = Witness(
        FpF(2), {"xs": [2]}, w.configuration, w.color, w.coloring_provenance,
        w.table_limit,
    )
    with pytest.raises(MalformedWitnessError):
        verify_witness(bad_gens, coloring, table_100k)


def test_verify_table_too_small(table_100k):
    w, coloring = _found_witness(table_100k)
    tiny = build_table(max(w.generators.values()) + 1)
    with pytest.raises(OutOfRangeError):
        verify_witness(w, coloring, tiny)


def test_verify_is_search_independent(table_100k):
    # hand-built witness, never touched by find_witness
    spec = Brauer(1)
    gens = {"x": 2, "z": 5}
    cfg = generate_configuration(spec, gens, table_100k)
    coloring = periodic_coloring(1, [1], 100)
    w = Witness(spec, gens, cfg, 1, coloring.provenance, table_100k.limit)
    assert verify_witness(w, coloring, table_100k)


# ---------------------------------------------------------------------------
# thresholds

def test_threshold_brauer_one_color(table_100k):
    spec = Brauer(1)
    cfg_for = lambda n: oracles.configs_within(spec, n, table_100k)
    got = threshold(spec, 1, 1, 10, table_100k)
    assert got == oracles.threshold_oracle(cfg_for, 1, 1, 10) == 3


def test_threshold_brauer_two_colors(table_100k):
    spec = Brauer(1)
    cfg_for = lambda n: oracles.configs_within(spec, n, table_100k)
    got = threshold(spec, 2, 1, 20, table_100k)
    assert got == oracles.threshold_oracle(cfg_for, 2, 1, 20) == 16
    # below the threshold an avoiding coloring must exist
    assert oracles.avoider_coloring(cfg_for(15), 2, 15) is not None
    assert oracles.avoider_coloring(cfg_for(16), 2, 16) is None


def _window(least, n):
    """The configurations admitted by {1..N} as edges over vertices v-1."""
    return [[v - 1 for v in cfg] for cfg, m in least.items() if m <= n]


@pytest.mark.parametrize("spec, family, params", [
    (Brauer(1), "brauer", (1,)),
    (FpF(2), "fpf", (2,)),
    (Deuber(1, 1), "deuber", (1, 1)),
    (GeoArithmetic(1), "geo", (1,)),
], ids=["brauer", "fpf", "deuber", "geo"])
def test_threshold_certificate(table_100k, spec, family, params):
    """16 is forced at r=2; an avoiding word for 15 passes the oracle's check."""
    assert threshold(spec, 2, 1, 16, table_100k) == 16
    least = admitted_configs(spec, 16, table_100k)
    word, _ = avoiding_word(15, _window(least, 15), 2)
    configs = oracles.window_configs(family, params, 15, oracles.members_brute(2000))
    assert len(word) == 15
    assert not oracles.mono_configs_exist(word, configs)
    assert oracles.mono_configs_exist((1,) * 15, configs)  # the check can fail
    assert avoiding_word(16, _window(least, 16), 2)[0] is None


def test_threshold_reach(table_100k):
    """Far past 2**24 colorings: Brauer(2) is not forced up to 120 at r=2."""
    assert threshold(Brauer(2), 2, 1, 120, table_100k) is None
    word, _ = avoiding_word(120, _window(admitted_configs(Brauer(2), 120, table_100k), 120), 2)
    configs = oracles.window_configs("brauer", (2,), 120, oracles.members_brute(2000))
    assert len(word) == 120 and configs
    assert not oracles.mono_configs_exist(word, configs)


# the families, then mt(2) with each phi map and longer fpf and deuber tuples
WALK_SPECS = [pytest.param(s, id=type(s).__name__) for s in FAMILIES] + [
    pytest.param(MillikenTaylor(2, phi), id=f"MillikenTaylor2-{phi}")
    for phi in (PhiProjection(2), PhiSum(), PhiProduct(), PhiLinear((1, 2), 0), PhiStarFold())
] + [pytest.param(FpF(3), id="FpF3"), pytest.param(Deuber(2, 1), id="Deuber21")]


# each walk spec on the 1e5 table, then on the table below 30: its 16 ranks
# make walks at bound 12 also prune candidates whose products leave the table
WALK_CASES = [pytest.param(p.values[0], 100_000, id=p.id) for p in WALK_SPECS] + [
    pytest.param(p.values[0], 30, id=f"{p.id}-limit30") for p in WALK_SPECS]


@pytest.mark.parametrize("spec, limit", WALK_CASES)
def test_single_walk_matches_per_window_walk(spec, limit):
    """admitted_configs' per-window view equals a fresh walk per window, and
    threshold equals the raw-word oracle over those windows."""
    table = build_table(limit)
    least = admitted_configs(spec, 12, table)
    per_window = {n: oracles.configs_within(spec, n, table) for n in range(1, 13)}
    assert per_window[12]
    for n, configs in per_window.items():
        assert {cfg for cfg, m in least.items() if m <= n} == set(configs)
    for r in (1, 2):
        want = oracles.threshold_oracle(per_window.get, r, 1, 12)
        assert threshold(spec, r, 1, 12, table) == want


def _walked(spec, bound, table, monkeypatch):
    """admitted_configs(spec, bound) and the candidate tuples it evaluated."""
    seen = []
    real = search.generators_from_tuple

    def record(spec, tup):
        seen.append(tup)
        return real(spec, tup)

    with monkeypatch.context() as m:
        m.setattr(search, "generators_from_tuple", record)
        return admitted_configs(spec, bound, table), seen


@pytest.mark.parametrize("spec, evaluated", [
    (GeoArithmetic(1), 47),
    (Brauer(2), 8),
    (FpF(3), 26),
    (MillikenTaylor(2, PhiProduct()), 17),
    (MillikenTaylor(2, PhiLinear((0, 0), 0)), 15**3),  # every value is 0: no jump
], ids=["geo1", "brauer2", "fpf3", "mt2-product", "mt2-zero"])
def test_threshold_walk_is_a_pruned_subsequence(table_100k, monkeypatch, spec, evaluated):
    """The pruned walk evaluates candidates in oracles.candidate_tuples' order,
    jumping only past candidates above one with a value above the bound or
    past the table."""
    _, seen = _walked(spec, 16, table_100k, monkeypatch)
    order = oracles.candidate_tuples(spec, SearchBounds(generator_max=16, value_bound=17))
    assert all(tup in order for tup in seen)  # consumes order: an in-order subsequence
    assert len(seen) == evaluated


@pytest.mark.parametrize("spec, evaluated", [(GeoArithmetic(1), 747), (Brauer(2), 32)],
                         ids=["geo1", "brauer2"])
def test_threshold_walk_at_64_restricts_to_16(table_100k, monkeypatch, spec, evaluated):
    """The unpruned walk at 64 is about 16M candidates for geo k=1; the walk
    at 16 is the part of the walk at 64 that windows up to 16 admit."""
    least, seen = _walked(spec, 64, table_100k, monkeypatch)
    assert len(seen) == evaluated
    assert {cfg: m for cfg, m in least.items() if m <= 16} == admitted_configs(
        spec, 16, table_100k)


@pytest.mark.parametrize("spec, bound, size, digest", [
    (Brauer(1), 1000, 2077, "ec736063691a358d"),
    (Brauer(2), 4000, 2059, "804d0d5d22ba032b"),
    (FpF(3), 300, 364, "d9984d793eeae987"),
    (Deuber(1, 2), 300, 152, "fe02bde3b0f513d8"),
    (MillikenTaylor(1, PhiSum()), 200, 319, "f8df27bf178991cd"),
    (PolyVdW(1, ((2,),)), 500, 266, "146b6c5969320531"),
], ids=["brauer1", "brauer2", "fpf3", "deuber12", "mt1-sum", "pvw1"])
def test_threshold_walk_past_12_is_pinned(table_100k, spec, bound, size, digest):
    """Walks that prune by both the bound and the table: the sorted
    (configuration, least window) items, digested."""
    least = admitted_configs(spec, bound, table_100k)
    got = hashlib.sha256(repr(sorted(least.items())).encode()).hexdigest()[:16]
    assert (len(least), got) == (size, digest)


def test_threshold_walk_follows_the_answer(table_100k, monkeypatch):
    """The walk bound doubles from 16 up to max_bound: a max_bound far above
    the answer costs one walk at 16, and no window means no walk."""
    walks = []

    def walk(spec, bound, table):
        walks.append(bound)
        return admitted_configs(spec, bound, table)

    monkeypatch.setattr(search, "admitted_configs", walk)
    assert threshold(GeoArithmetic(1), 2, 1, 64, table_100k) == 16
    assert threshold(Brauer(1), 2, 1, 1000, table_100k) == 16
    assert threshold(Brauer(1), 2, 20, 10, table_100k) is None
    assert threshold(Brauer(1), 1, 1, 2, table_100k) is None
    assert threshold(Brauer(2), 2, 1, 120, table_100k) is None
    assert walks == [16, 16, 2, 16, 32, 64, 120]


def test_threshold_not_reached(table_100k):
    assert threshold(Brauer(1), 2, 1, 15, table_100k) is None
    assert threshold(FpF(2), 2, 1, 12, table_100k) is None


def test_threshold_cap(table_100k):
    """Brauer(1) r=2 at 16 needs 11 nodes a probe: a cap of 10 is passed."""
    assert threshold(Brauer(1), 2, 16, 16, table_100k, cap=11) == 16
    with pytest.raises(EnumerationCapError):
        threshold(Brauer(1), 2, 16, 16, table_100k, cap=10)


def test_threshold_geo_three_colors(table_100k):
    """GeoArithmetic(1) at r=3 is forced at 54; an avoiding word for 53
    passes the oracle's check over the window's 222 configurations."""
    assert threshold(GeoArithmetic(1), 3, 1, 60, table_100k) == 54
    least = admitted_configs(GeoArithmetic(1), 53, table_100k)
    configs = [cfg for cfg, m in least.items() if m <= 53]
    word, _ = avoiding_word(53, _window(least, 53), 3)
    assert len(configs) == 222 and len(word) == 53
    assert not oracles.mono_configs_exist(word, configs)
    assert oracles.mono_configs_exist((1,) * 53, configs)  # the check can fail


def test_threshold_geo_four_colors(table_100k):
    """GeoArithmetic(1) at r=4 is forced at 180; an avoiding word for 179
    passes the oracle's check.  Window 180 is refuted in 1,238 nodes led by
    the ranks of 2**a, and in 30,489 in walk order."""
    assert threshold(GeoArithmetic(1), 4, 1, 400, table_100k) == 180
    least = admitted_configs(GeoArithmetic(1), 179, table_100k)
    configs = [cfg for cfg, m in least.items() if m <= 179]
    word, _ = avoiding_word(179, _window(least, 179), 4)
    assert len(word) == 179
    assert not oracles.mono_configs_exist(word, configs)
    assert oracles.mono_configs_exist((1,) * 179, configs)  # the check can fail
    tagged = admitted_configs(GeoArithmetic(1), 180, table_100k).items()
    for lead, nodes in ([2, 3, 5, 9, 16, 29, 54, 97, 180], 1_238), ((), 30_489):
        assert forced_window([(180, 180, tagged, lead)], 4, nodes) == 180
        with pytest.raises(EnumerationCapError):
            forced_window([(180, 180, tagged, lead)], 4, nodes - 1)


def _stage(first, last, *edges):
    """A stage whose edges are all tagged last, with no lead."""
    return first, last, [(e, last) for e in edges], ()


def test_forced_window_numbers_any_vertices():
    """forced_window numbers each probe's vertices itself: tuple and
    string labels work, a vertex on no edge is left out, a window without
    edges is not forced, and an empty edge is refused."""
    triangle = [[("a", 1), ("b", 2)], [("b", 2), "c"], ["c", ("a", 1)]]
    assert forced_window([_stage(1, 1, *triangle)], 2, 10) == 1
    assert forced_window([(1, 2, [(triangle[0], 1), (triangle[1], 1), (triangle[2], 2)], ())],
                         2, 10) == 2
    assert forced_window([_stage(1, 1, *triangle)], 3, 10) is None
    # one edge of two vertices takes three nodes; numbered by value, the
    # 10**6 - 1 integers between its labels would take a node each
    assert forced_window([_stage(1, 1, ["x", "y"])], 2, 3) is None
    assert forced_window([(1, 2, [([0, 10**6], 1), ([5], 2)], ())], 2, 3) == 2
    with pytest.raises(EnumerationCapError):
        forced_window([_stage(1, 1, [0, 10**6])], 2, 2)
    assert forced_window([_stage(1, 1), _stage(2, 5)], 1, 0) is None
    with pytest.raises(ValueError):
        forced_window([_stage(1, 1, ["x"], [])], 2, 10)
    with pytest.raises(ValueError):
        forced_window([_stage(1, 1, *triangle)], 0, 10)


def test_forced_window_finds_the_answer_inside_a_stage():
    """A probe keeps the edges tagged n or less wherever they stand in the
    stage: the triangle closes at 3 inside stage (1, 8), an unforced stage
    hands over to the next, and edges tagged below first make first the
    answer."""
    triangle = [[1, 2], [2, 3], [3, 1]]
    tagged = [(triangle[2], 3), ([4, 5], 4), (triangle[0], 1), ([5, 6], 5), (triangle[1], 2)]
    assert forced_window([(1, 8, tagged, ())], 2, 100) == 3
    early = [(e, m) for e, m in tagged if m <= 2]
    assert forced_window([(1, 2, early, ()), (3, 8, tagged, ())], 2, 100) == 3
    assert forced_window([(4, 8, tagged, ())], 2, 100) == 4
    assert forced_window([(1, 8, tagged, ())], 3, 100) is None


def test_threshold_refutes_once_per_forced_stage(table_100k, monkeypatch):
    """A stage whose last window is not forced costs one search.  A forced
    one refutes last, and the refutation's core, the least window holding
    every edge it charged, is the answer when the window below it is not
    forced: one refutation and one more search, not a search per window."""
    probes = []
    real = search.avoiding_word

    def probe(*args):
        got = real(*args)
        probes.append(got[0] is None)
        return got

    monkeypatch.setattr(search, "avoiding_word", probe)
    assert threshold(Brauer(1), 2, 1, 16, table_100k) == 16
    assert probes == [True, False]
    probes.clear()
    assert threshold(Brauer(1), 10**6, 1, 1000, table_100k) is None
    assert 0 < len(probes) <= 7 and not any(probes)
    probes.clear()
    assert threshold(GeoArithmetic(1), 3, 1, 60, table_100k) == 54
    assert sum(probes) == 1


def _random_stages(rng):
    """r in 2..3 and 1-3 consecutive stages over up to 12 vertices (10 at
    r = 3, whose forced windows the oracle walks 3**size words for): edges
    of 1-3 vertices, walked in a shuffled order, tagged at or above their
    largest vertex, and each stage holding every edge tagged up to its
    last and leading with a random list of labels, some on no edge."""
    r = int(rng.integers(2, 4))
    size = int(rng.integers(2, 13 if r == 2 else 11))
    tagged = []
    for _ in range(int(rng.integers(0, 5 * size + 1))):
        width = 1 if rng.random() < 0.02 else int(rng.integers(2, min(size, 3) + 1))
        edge = [int(v) + 1 for v in rng.choice(size, width, replace=False)]
        tagged.append((edge, max(edge) + int(rng.choice(4, p=[0.7, 0.1, 0.1, 0.1]))))
    bounds = np.sort(rng.choice(np.arange(1, size + 4), int(rng.integers(1, 4)), replace=False))
    first = int(rng.integers(1, 5))
    stages = []
    for last in bounds.tolist():
        if last >= first:
            walk = [tagged[i] for i in rng.permutation(len(tagged)) if tagged[i][1] <= last]
            lead = rng.permutation(size + 3)[:int(rng.integers(0, size + 1))].tolist()
            stages.append((first, last, walk, lead))
            first = last + 1
    return stages, r


def test_forced_window_matches_a_window_by_window_search():
    """forced_window against one brute-force search per window, over seeded
    random stages: edges tagged above their largest vertex or below first,
    single-vertex edges, and several stages per input."""
    rng = np.random.Generator(np.random.PCG64(2503))
    stages_run = forced = 0
    for _ in range(400):
        stages, r = _random_stages(rng)
        want = oracles.forced_window_oracle(stages, r)
        assert forced_window(stages, r, 10**6) == want, (stages, r)
        stages_run += len(stages)
        forced += want is not None
    assert stages_run >= 500 and 100 <= forced <= 300


def test_threshold_numbers_the_ranks_of_powers_of_two_first(table_100k):
    """Each probe numbers the ranks of 2**a in its window first, then the
    rest as the walk meets them: 137 nodes settle geo r=3, and a cap one
    lower is passed.  In walk order alone its last stage needs 509."""
    assert threshold(GeoArithmetic(1), 3, 1, 60, table_100k, cap=137) == 54
    with pytest.raises(EnumerationCapError):
        threshold(GeoArithmetic(1), 3, 1, 60, table_100k, cap=136)
    tagged = admitted_configs(GeoArithmetic(1), 60, table_100k).items()
    assert forced_window([(33, 60, tagged, ())], 3, 509) == 54
    with pytest.raises(EnumerationCapError):
        forced_window([(33, 60, tagged, ())], 3, 508)


def test_threshold_walk_drops_only_out_of_range_candidates(table_100k):
    class Broken(Brauer):
        def _values(self, g, ar):
            raise ValueError("not an out-of-range error")

    with pytest.raises(ValueError, match="not an out-of-range error"):
        admitted_configs(Broken(1), 8, table_100k)


def test_threshold_validation(table_100k):
    with pytest.raises(ValueError):
        threshold(Brauer(1), 0, 1, 5, table_100k)
    with pytest.raises(ValueError):
        threshold(Brauer(1), 2, 0, 5, table_100k)
