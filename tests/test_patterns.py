"""Pattern families: worked values, validation, witnesses, documents."""

import dataclasses
import inspect
import itertools
import pickle
import zlib

import pytest

import oracles
from sqstar import (
    Brauer,
    Deuber,
    FpF,
    GeoArithmetic,
    MalformedWitnessError,
    MillikenTaylor,
    OutOfRangeError,
    PhiLinear,
    PhiProduct,
    PhiProjection,
    PhiStarFold,
    PhiSum,
    PolyVdW,
    Witness,
    generate_configuration,
    load_witness,
    random_coloring,
    save_witness,
    star,
)
from sqstar import patterns
from sqstar.patterns import (
    FAMILIES,
    FAMILY_NAMES,
    PARAMS,
    block_tuples,
    config_values,
    phi_from_str,
    witness_from_doc,
    witness_to_doc,
)
from sqstar.search import generators_from_tuple


# ---------------------------------------------------------------------------
# worked configuration values

def test_fpf(table_100k):
    t = table_100k
    assert generate_configuration(FpF(2), {"xs": [2, 5]}, t) == (2, 5, 9)
    assert generate_configuration(FpF(1), {"xs": [1]}, t) == (1,)
    assert len(generate_configuration(FpF(3), {"xs": [2, 5, 8]}, t)) <= 7
    with pytest.raises(ValueError):
        generate_configuration(FpF(2), {"xs": [0, 2]}, t)


def test_brauer(table_100k):
    t = table_100k
    assert generate_configuration(Brauer(2), {"x": 2, "z": 2}, t) == (2, 3, 5)
    assert generate_configuration(Brauer(5), {"x": 1, "z": 17}, t) == (1, 17)
    # the j=1 term is the plain product
    assert star(4, 9, t) in generate_configuration(Brauer(1), {"x": 4, "z": 9}, t)
    with pytest.raises(ValueError):
        generate_configuration(Brauer(1), {"x": 0, "z": 2}, t)


def test_brauer_monotone_in_k(table_100k):
    gens = {"x": 3, "z": 4}
    prev = set(generate_configuration(Brauer(1), gens, table_100k))
    for k in range(2, 6):
        cur = set(generate_configuration(Brauer(k), gens, table_100k))
        assert prev <= cur
        prev = cur


def test_deuber(table_100k):
    t = table_100k
    assert generate_configuration(Deuber(1, 1), {"xs": [2, 2]}, t) == (2, 3)
    assert generate_configuration(Deuber(1, 1), {"xs": [1, 6]}, t) == (1, 6)
    # every generator belongs to the configuration
    cfg = generate_configuration(Deuber(2, 2), {"xs": [5, 7, 2]}, t)
    assert {5, 7, 2} <= set(cfg)
    with pytest.raises(ValueError):
        generate_configuration(Deuber(1, 1), {"xs": [4]}, t)


def test_deuber_monotone_in_p(table_100k):
    gens = {"xs": [3, 4, 2]}
    prev = set(generate_configuration(Deuber(2, 1), gens, table_100k))
    for p in range(2, 4):
        cur = set(generate_configuration(Deuber(2, p), gens, table_100k))
        assert prev <= cur
        prev = cur


def test_milliken_taylor(table_100k):
    t = table_100k
    xs = {"xs": [2, 5]}
    assert generate_configuration(MillikenTaylor(2, PhiSum()), xs, t) == (7,)
    assert generate_configuration(MillikenTaylor(1, PhiProjection(1)), xs, t) == (2, 5, 9)
    assert generate_configuration(MillikenTaylor(2, PhiStarFold()), xs, t) == (9,)
    assert generate_configuration(MillikenTaylor(2, PhiProduct()), xs, t) == (10,)
    assert generate_configuration(
        MillikenTaylor(2, PhiLinear((2, 1), 3)), xs, t
    ) == (2 * 2 + 5 + 3,)


def test_block_tuples():
    got = list(block_tuples(3, 2))
    # strictly ordered nonempty blocks inside {1,2,3}
    want = {
        ((1,), (2,)),
        ((1,), (3,)),
        ((2,), (3,)),
        ((1,), (2, 3)),
        ((1, 2), (3,)),
    }
    assert set(got) == want
    assert len(got) == len(want)


def test_mt_configuration_first_member_of_fp(table_100k):
    gens = {"xs": [2, 5, 8]}
    vals = generate_configuration(MillikenTaylor(1, PhiProjection(1)), gens, table_100k)
    fp = generate_configuration(FpF(3), gens, table_100k)
    assert set(vals) <= set(fp)


def test_geo(table_100k):
    t = table_100k

    def geo(b, gamma, a=1, d=1):
        return generate_configuration(
            GeoArithmetic(1), {"b": b, "gamma": gamma, "a": a, "d": d}, t
        )

    assert geo([], [2]) == (1, 2, 3)
    with pytest.raises(ValueError):
        geo([], [])
    with pytest.raises(ValueError):
        geo([], [0])
    with pytest.raises(ValueError):
        geo([(0, 1)], [2])


def test_geo_monotone_in_k(table_100k):
    gens = {"b": [(2, 1)], "gamma": [3], "a": 2, "d": 1}
    prev = set(generate_configuration(GeoArithmetic(1), gens, table_100k))
    for k in range(2, 4):
        cur = set(generate_configuration(GeoArithmetic(k), gens, table_100k))
        assert prev <= cur
        prev = cur


def test_pvw(table_100k):
    t = table_100k
    assert generate_configuration(PolyVdW(1, ((2,),)), {"b": [], "c": 1}, t) == (2,)
    assert generate_configuration(PolyVdW(1, ((2,),)), {"b": [], "c": 2}, t) == (3,)
    assert generate_configuration(PolyVdW(1, ((2,), (5,))), {"b": [], "c": 1}, t) == (2, 5)
    with pytest.raises(ValueError):
        generate_configuration(PolyVdW(1, ((2,),)), {"b": [], "c": 0}, t)


# ---------------------------------------------------------------------------
# phi expressions

def test_phi_roundtrip():
    for phi in (
        PhiProjection(3),
        PhiSum(),
        PhiProduct(),
        PhiLinear((1, 0, 2), 5),
        PhiStarFold(),
    ):
        assert phi_from_str(str(phi)) == phi
    with pytest.raises(ValueError):
        phi_from_str("nonsense")
    with pytest.raises(ValueError):
        phi_from_str("proj:x")
    with pytest.raises(ValueError, match="unknown combination map 'projection:1'"):
        phi_from_str("projection:1")  # proj:I is the one projection form


def test_spec_validation():
    with pytest.raises(ValueError):
        FpF(0)
    with pytest.raises(ValueError):
        Deuber(0, 1)
    with pytest.raises(ValueError):
        PolyVdW(2, ((1, 2), (3,)))
    with pytest.raises(ValueError):
        PolyVdW(1, ())
    with pytest.raises(ValueError):
        PolyVdW(1, ((0,),))
    with pytest.raises(TypeError):
        MillikenTaylor(1, object())
    # the combination map receives exactly m block values
    for phi in (PhiProjection(3), PhiLinear((1, 1, 1), 0), PhiLinear((1,), 0)):
        with pytest.raises(ValueError):
            MillikenTaylor(2, phi)
        with pytest.raises(MalformedWitnessError):
            patterns.spec_from_doc({"family": "mt", "params": {"m": 2, "phi": str(phi)}})
    MillikenTaylor(2, PhiProjection(2))
    MillikenTaylor(2, PhiLinear((1, 1), 0))


def test_every_family_is_declared_once():
    # bench/ reads FAMILY_NAMES[type(spec)] and counts the items that
    # config_values yields, which only a generator function reports
    assert inspect.isgeneratorfunction(patterns.config_values)
    assert FAMILY_NAMES == {
        FpF: "fpf",
        Brauer: "brauer",
        Deuber: "deuber",
        MillikenTaylor: "mt",
        GeoArithmetic: "geo",
        PolyVdW: "pvw",
    }


MONOTONE_SPECS = [
    FpF(3),
    Brauer(2),
    Deuber(2, 1),
    MillikenTaylor(2, PhiProjection(2)),
    MillikenTaylor(2, PhiSum()),
    MillikenTaylor(2, PhiProduct()),
    MillikenTaylor(2, PhiLinear((1, 2), 3)),
    MillikenTaylor(2, PhiStarFold()),
    GeoArithmetic(1),
    PolyVdW(2, ((2, 3), (3, 5))),
]


def _stream(spec, tup, table):
    """The stream's values at a candidate tuple, and whether it then raised
    OutOfRangeError."""
    values = []
    try:
        for v in config_values(spec, generators_from_tuple(spec, tup), table):
            values.append(v)
    except OutOfRangeError:
        return values, True
    return values, False


@pytest.mark.parametrize("spec", MONOTONE_SPECS, ids=repr)
def test_values_are_monotone_in_every_tuple_position(spec, table_100k):
    """The _Family contract the threshold walk prunes by: t <= t' componentwise
    makes every stream position's value at t at most its value at t', and
    t' past the table no later than t."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(zlib.crc32(repr(spec).encode())))
    width = sum(n for _, _, n in spec.layout)
    outcomes = set()
    for _ in range(200):
        top = float(np.exp(rng.uniform(0, np.log(400))))
        t = tuple(int(x) for x in rng.integers(1, top + 1, width))
        t2 = tuple(a + int(x) for a, x in zip(t, rng.integers(0, top + 1, width)))
        values, past = _stream(spec, t, table_100k)
        values2, past2 = _stream(spec, t2, table_100k)
        assert all(v <= v2 for v, v2 in zip(values, values2)), (t, t2)
        if past:
            assert past2 and len(values2) <= len(values), (t, t2)
        outcomes.add((past, past2))
    assert outcomes == {(False, False), (False, True), (True, True)}


# ---------------------------------------------------------------------------
# uniform generation and the two-path consistency property

SEEDED_DRAWS = 100


def _random_spec_and_gens(rng, family, table):
    g = lambda lo, hi: int(rng.integers(lo, hi))
    if family == "fpf":
        k = g(1, 4)
        return FpF(k), {"xs": [g(2, 30) for _ in range(k)]}
    if family == "brauer":
        return Brauer(g(1, 4)), {"x": g(2, 20), "z": g(2, 20)}
    if family == "deuber":
        m, p = g(1, 3), g(1, 3)
        return Deuber(m, p), {"xs": [g(2, 12) for _ in range(m + 1)]}
    if family == "mt":
        m = g(1, 3)
        phi = [PhiSum(), PhiProduct(), PhiStarFold(), PhiProjection(1)][g(0, 4)]
        return (
            MillikenTaylor(m, phi),
            {"xs": [g(2, 15) for _ in range(m + g(0, 2))]},
        )
    if family == "geo":
        return (
            GeoArithmetic(g(1, 3)),
            {
                "b": [(g(2, 10), 1)],
                "gamma": sorted({g(2, 10) for _ in range(g(1, 3))}),
                "a": g(1, 8),
                "d": g(1, 5),
            },
        )
    if family == "pvw":
        d = g(1, 3)
        sets = []
        for _ in range(g(1, 3)):
            f = []
            while len(f) < d:
                c = g(2, 12)
                if c not in f:
                    f.append(c)
            sets.append(tuple(f))
        return PolyVdW(d, tuple(sets)), {"b": [(g(2, 8), 1)], "c": g(1, 3)}
    raise AssertionError(family)


def _fold_value_paths(spec, gens, table):
    """Recompute every configuration value through the oracle folds only."""
    fold = lambda factors: oracles.fold_eval(factors, table)
    out = []
    if isinstance(spec, FpF):
        xs = gens["xs"]
        for mask in range(1, 1 << len(xs)):
            sub = [xs[i] for i in range(len(xs)) if mask >> i & 1]
            out.append(oracles.fold_star(sub, table))
    elif isinstance(spec, Brauer):
        x, z = gens["x"], gens["z"]
        out += [x, z]
        for j in range(1, spec.k + 1):
            out.append(fold([(x, j), (z, 1)]))
    elif isinstance(spec, Deuber):
        xs = gens["xs"]
        out.append(xs[0])
        for j in range(1, spec.m + 1):
            for expo in itertools.product(range(spec.p + 1), repeat=j):
                out.append(fold([*zip(xs, expo), (xs[j], 1)]))
    elif isinstance(spec, MillikenTaylor):
        xs = gens["xs"]
        for fs in block_tuples(len(xs), spec.m):
            vs = [oracles.fold_star([xs[t - 1] for t in f], table) for f in fs]
            out.append(oracles.phi(str(spec.phi), vs, table))
    elif isinstance(spec, GeoArithmetic):
        b = fold(gens["b"])
        for i in range(spec.k + 1):
            inner = oracles.fold_star(gens["gamma"] + [gens["a"] + i * gens["d"]], table)
            for j in range(spec.k + 1):
                out.append(fold([(b, 1), (inner, j)]))
    elif isinstance(spec, PolyVdW):
        b = fold(gens["b"])
        c = gens["c"]
        for f in spec.sets:
            out.append(fold([(b, 1)] + [(a, c ** (j + 1)) for j, a in enumerate(f)]))
    return out


@pytest.mark.parametrize("family", ["fpf", "brauer", "deuber", "mt", "geo", "pvw"])
def test_two_path_consistency(family, table_1m):
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(zlib.crc32(family.encode())))
    done = 0
    attempts = 0
    while done < SEEDED_DRAWS:
        attempts += 1
        assert attempts < SEEDED_DRAWS * 50, "too many out-of-range draws"
        spec, gens = _random_spec_and_gens(rng, family, table_1m)
        try:
            stream = list(config_values(spec, gens, table_1m))
            folded = _fold_value_paths(spec, gens, table_1m)
        except OutOfRangeError:
            continue
        assert stream == folded
        assert generate_configuration(spec, gens, table_1m) == tuple(
            sorted(set(stream))
        )
        done += 1


def test_generate_configuration_validates(table_100k):
    with pytest.raises(ValueError):
        generate_configuration(FpF(2), {"xs": [2]}, table_100k)
    with pytest.raises(ValueError):
        generate_configuration(Brauer(1), {"x": 2}, table_100k)
    with pytest.raises(ValueError):
        generate_configuration(Deuber(2, 1), {"xs": [2, 3]}, table_100k)
    with pytest.raises(ValueError):
        generate_configuration(
            GeoArithmetic(1), {"b": [(2, 1)], "gamma": [], "a": 1, "d": 1}, table_100k
        )
    with pytest.raises(ValueError):
        generate_configuration(MillikenTaylor(3, PhiSum()), {"xs": [2, 3]}, table_100k)


# ---------------------------------------------------------------------------
# witness documents

def _sample_witness(table):
    spec = Brauer(2)
    gens = {"x": 2, "z": 2}
    config = generate_configuration(spec, gens, table)
    c = random_coloring(0, 2, 100)
    return Witness(spec, gens, config, 1, c.provenance, table.limit)


def test_witness_doc_roundtrip(tmp_path, table_100k):
    w = _sample_witness(table_100k)
    path = str(tmp_path / "w.json")
    save_witness(w, path)
    back = load_witness(path)
    assert back.spec == w.spec
    assert back.generators == w.generators
    assert back.configuration == w.configuration
    assert back.color == w.color
    assert back.coloring_provenance == w.coloring_provenance
    assert back.table_limit == w.table_limit


def test_witness_doc_validation(table_100k):
    w = _sample_witness(table_100k)
    doc = witness_to_doc(w)

    def broken(**changes):
        d = json.loads(json.dumps(doc))
        d.update(changes)
        return d

    import json

    with pytest.raises(MalformedWitnessError):
        witness_from_doc([])
    with pytest.raises(MalformedWitnessError):
        witness_from_doc(broken(color=0))
    with pytest.raises(MalformedWitnessError):
        witness_from_doc(broken(configuration=[5, 2, 3]))
    with pytest.raises(MalformedWitnessError):
        witness_from_doc(broken(configuration=[2, 2, 3]))
    with pytest.raises(MalformedWitnessError):
        witness_from_doc(broken(spec={"family": "nope", "params": {}}))
    d = broken()
    del d["generators"]
    with pytest.raises(MalformedWitnessError):
        witness_from_doc(d)
    d = broken(generators={"x": 2})
    with pytest.raises(MalformedWitnessError):
        witness_from_doc(d)
    # spec parameters are real integers (no bool, no float) and phi text
    for spec in (
        {"family": "brauer", "params": {"k": 1.7}},
        {"family": "brauer", "params": {"k": True}},
        {"family": "mt", "params": {"m": 1, "phi": 3}},
        {"family": "pvw", "params": {"d": 1, "sets": [[2.5]]}},
    ):
        with pytest.raises(MalformedWitnessError):
            witness_from_doc(broken(spec=spec))


def test_all_witness_generator_layouts_roundtrip(table_1m):
    cases = [
        (FpF(2), {"xs": [2, 5]}),
        (Brauer(1), {"x": 3, "z": 4}),
        (Deuber(1, 1), {"xs": [2, 3]}),
        (MillikenTaylor(1, PhiStarFold()), {"xs": [2, 5]}),
        (GeoArithmetic(1), {"b": [(2, 1)], "gamma": [3], "a": 1, "d": 2}),
        (PolyVdW(2, ((2, 3),)), {"b": [(5, 1)], "c": 2}),
    ]
    for spec, gens in cases:
        config = generate_configuration(spec, gens, table_1m)
        w = Witness(spec, gens, config, 1, "random:pcg64:seed=0,r=1,bound=10000",
                    table_1m.limit)
        back = witness_from_doc(witness_to_doc(w))
        assert back.spec == spec
        assert pickle.loads(pickle.dumps(w)) == w
        regen = generate_configuration(back.spec, back.generators, table_1m)
        assert regen == config


def test_params_table_names_every_spec_field():
    # the witness documents and the command line read each parameter from PARAMS
    fields = {f.name for cls in FAMILIES.values() for f in dataclasses.fields(cls)}
    assert set(PARAMS) == fields
