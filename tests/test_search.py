"""Witness search, verification, and thresholds with their certificates."""

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
    PhiProjection,
    PhiSum,
    PolyVdW,
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
from sqstar import search
from sqstar.search import admitted_configs, candidate_tuples, generators_from_tuple

FAMILIES = [
    FpF(2),
    Brauer(2),
    Deuber(1, 1),
    MillikenTaylor(1, PhiSum()),
    GeoArithmetic(1),
    PolyVdW(1, ((2,),)),
]

BOUNDS = SearchBounds(generator_max=5, value_bound=400)


def _reference_least(spec, bounds, coloring, table):
    """Unpruned rescan: first candidate whose configuration is mono in window."""
    for tup in candidate_tuples(spec, bounds):
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


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_least_witness_matches_unpruned_rescan(spec, table_100k):
    coloring = random_coloring(7, 2, 400)
    report = find_witness(table_100k, coloring, spec, BOUNDS)
    ref = _reference_least(spec, BOUNDS, coloring, table_100k)
    if ref is None:
        assert report.status == "exhausted"
        return
    gens, cfg, color = ref
    assert report.status == "witness"
    assert report.witness.generators == gens
    assert report.witness.configuration == cfg
    assert report.witness.color == color
    assert report.witness.coloring_provenance == coloring.provenance
    assert report.witness.table_limit == table_100k.limit


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
    tuples = list(candidate_tuples(spec, SearchBounds(generator_max=3, value_bound=10)))
    assert tuples[:3] == first and len(tuples) == count
    assert generators_from_tuple(spec, tuples[1]) == gens
    bounds = SearchBounds(generator_max=3, value_bound=10, include_identity=True)
    tuples = list(candidate_tuples(spec, bounds))
    ones = (1,) * (len(first[0]) - 1)
    assert tuples[:3] == [ones + (1,), ones + (2,), ones + (3,)]
    assert len(tuples) == count_with_identity


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("identity", [False, True])
def test_candidate_generators_pass_the_layout_check(spec, identity):
    # the search feeds these generators to the family unchecked
    bounds = SearchBounds(generator_max=4, value_bound=10, include_identity=identity)
    for tup in candidate_tuples(spec, bounds):
        g = generators_from_tuple(spec, tup)
        assert spec._checked(g) == g


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_witness_under_constant_coloring(spec, table_100k):
    coloring = periodic_coloring(1, [1], 400)
    report = find_witness(table_100k, coloring, spec, BOUNDS)
    assert report.found
    assert report.witness.color == 1
    assert verify_witness(report.witness, coloring, table_100k)


def test_deterministic_across_runs_and_workers(table_100k):
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
    word = avoiding_word(15, _window(least, 15), 2)
    configs = oracles.window_configs(family, params, 15, oracles.members_brute(2000))
    assert len(word) == 15
    assert not oracles.mono_configs_exist(word, configs)
    assert oracles.mono_configs_exist((1,) * 15, configs)  # the check can fail
    assert avoiding_word(16, _window(least, 16), 2) is None


def test_threshold_reach(table_100k):
    """Far past 2**24 colorings: Brauer(2) is not forced up to 120 at r=2."""
    assert threshold(Brauer(2), 2, 1, 120, table_100k) is None
    word = avoiding_word(120, _window(admitted_configs(Brauer(2), 120, table_100k), 120), 2)
    configs = oracles.window_configs("brauer", (2,), 120, oracles.members_brute(2000))
    assert len(word) == 120 and configs
    assert not oracles.mono_configs_exist(word, configs)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_single_walk_matches_per_window_walk(table_100k, spec):
    """admitted_configs' per-window view equals a fresh walk per window, and
    threshold equals the raw-word oracle over those windows."""
    least = admitted_configs(spec, 12, table_100k)
    per_window = {n: oracles.configs_within(spec, n, table_100k) for n in range(1, 13)}
    assert per_window[12]
    for n, configs in per_window.items():
        assert {cfg for cfg, m in least.items() if m <= n} == set(configs)
    for r in (1, 2):
        want = oracles.threshold_oracle(per_window.get, r, 1, 12)
        assert threshold(spec, r, 1, 12, table_100k) == want


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
    with pytest.raises(EnumerationCapError):
        threshold(Brauer(1), 2, 16, 16, table_100k, cap=2**10)


def test_threshold_walk_drops_only_out_of_range_candidates(table_100k):
    spec = MillikenTaylor(2, PhiSum())
    object.__setattr__(spec, "phi", PhiProjection(3))  # past the constructor's check
    with pytest.raises(ValueError):
        admitted_configs(spec, 8, table_100k)


def test_threshold_validation(table_100k):
    with pytest.raises(ValueError):
        threshold(Brauer(1), 0, 1, 5, table_100k)
    with pytest.raises(ValueError):
        threshold(Brauer(1), 2, 0, 5, table_100k)
