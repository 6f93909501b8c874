"""Acceptance gate: twelve numbered criteria, one PASS/FAIL line each.

Each test exercises one criterion end to end at its stated tolerance and
prints a single terminal-visible verdict line.  Expected values marked
DERIVED were computed by the independent oracles in oracles.py before
the library code under test existed.
"""

import itertools
import os
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import oracles
import test_patterns as tp
from sqstar import (
    Brauer,
    CorruptCacheError,
    Deuber,
    FpF,
    GeoArithmetic,
    LocatedWord,
    MillikenTaylor,
    OutOfRangeError,
    PhiSum,
    PhjPoint,
    PolyVdW,
    SearchBounds,
    build_table,
    concat,
    eval_monomial,
    find_witness,
    h_project,
    hj_threshold,
    is_member,
    load_cache,
    m_project,
    phj_substitute,
    random_coloring,
    save_cache,
    star,
    star_many,
    verify_laws,
    verify_witness,
)
from sqstar.patterns import config_values


@pytest.fixture
def report(capsys):
    def _report(num, label, ok, detail=""):
        verdict = "PASS" if ok else "FAIL"
        line = f"{verdict} criterion {num:02d}: {label}"
        if detail and not ok:
            line += f" [{detail}]"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def _best_of(fn, repeats=10):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


PREFIX = [0, 1, 2, 4, 5, 8, 9, 10, 13, 16, 17, 18, 20, 25, 26, 29, 32]


def test_criterion_01_enumeration_prefix(report):
    table = build_table(33)
    exact = list(int(v) for v in table.members(table.size)) == PREFIX
    elapsed = _best_of(lambda: build_table(33))
    report(
        1,
        "ground enumeration prefix below 33",
        exact and elapsed < 1e-3,
        f"exact={exact} elapsed={elapsed * 1e3:.3f}ms",
    )


def test_criterion_02_worked_product(report, table_100k):
    elapsed = _best_of(lambda: star(2, 5, table_100k))
    ok = star(2, 5, table_100k) == 9 and elapsed < 1e-3
    report(2, "induced product 2 * 5 = 9", ok, f"elapsed={elapsed * 1e3:.4f}ms")


def test_criterion_03_membership_oracle(report, table_100k):
    t0 = time.perf_counter()
    flags = oracles.two_squares_flags(10**5)
    member_ok = all(is_member(n) == bool(flags[n]) for n in range(10**5))
    counts = np.concatenate(([0], np.cumsum(flags)))
    count_ok = all(
        table_100k.count_below(n) == int(counts[n]) for n in range(10**5)
    )
    elapsed = time.perf_counter() - t0
    report(
        3,
        "membership and counting vs brute force below 1e5",
        member_ok and count_ok and elapsed < 5.0,
        f"member={member_ok} count={count_ok} elapsed={elapsed:.2f}s",
    )


def test_criterion_04_semigroup_laws(report, table_100m_timed):
    table, _ = table_100m_timed
    t0 = time.perf_counter()
    laws = verify_laws(100, table)
    elapsed = time.perf_counter() - t0
    names = {c.name for c in laws.checks}
    expected = {"associativity", "commutativity", "identity", "absorption",
                "multiplicativity"}
    ok = laws.ok and expected <= names and elapsed < 30.0
    report(
        4,
        "semigroup laws on ranks 0..100 over the 1e8 table",
        ok,
        f"ok={laws.ok} elapsed={elapsed:.1f}s",
    )


def test_criterion_05_pattern_path_consistency(report, table_1m):
    t0 = time.perf_counter()
    bad = 0
    for family in ("fpf", "brauer", "deuber", "mt", "geo", "pvw"):
        rng = np.random.Generator(np.random.PCG64(zlib.crc32(family.encode())))
        done = 0
        while done < 100:
            spec, gens = tp._random_spec_and_gens(rng, family, table_1m)
            try:
                stream = list(config_values(spec, gens, table_1m))
                folded = tp._fold_value_paths(spec, gens, table_1m)
            except OutOfRangeError:
                continue
            if stream != folded:
                bad += 1
            done += 1
    elapsed = time.perf_counter() - t0
    report(
        5,
        "eval path equals star/power fold path, 100 draws x 6 families",
        bad == 0 and elapsed < 10.0,
        f"mismatches={bad} elapsed={elapsed:.1f}s",
    )


FUZZ_SPECS = [
    FpF(2),
    Brauer(2),
    Deuber(1, 1),
    MillikenTaylor(1, PhiSum()),
    GeoArithmetic(1),
    PolyVdW(1, ((2,),)),
]


def test_criterion_06_search_soundness_fuzz(report, table_1m):
    t0 = time.perf_counter()
    bounds = SearchBounds(generator_max=6, value_bound=5000, node_budget=2000)
    found = 0
    sound = True
    stable = True
    for seed in range(10**4):
        spec = FUZZ_SPECS[seed % len(FUZZ_SPECS)]
        r = 2 + (seed // len(FUZZ_SPECS)) % 2
        coloring = random_coloring(seed, r, 5000)
        rep = find_witness(table_1m, coloring, spec, bounds)
        if rep.found:
            found += 1
            if not verify_witness(rep.witness, coloring, table_1m):
                sound = False
                break
        if seed % 100 == 0:
            again = find_witness(table_1m, coloring, spec, bounds)
            if again.status != rep.status or again.nodes != rep.nodes:
                stable = False
            if rep.found and again.witness.generators != rep.witness.generators:
                stable = False
    elapsed = time.perf_counter() - t0
    report(
        6,
        "search soundness fuzz, 1e4 runs",
        sound and stable and elapsed < 300.0,
        f"sound={sound} stable={stable} found={found} elapsed={elapsed:.0f}s",
    )


def test_criterion_07_empirical_richness(report, table_100m_timed):
    table, _ = table_100m_timed
    bounds = SearchBounds(generator_max=64, value_bound=5000)
    finds = 0
    clean = True
    for seed in range(50):
        coloring = random_coloring(seed, 2, 5000)
        rep = find_witness(table, coloring, Brauer(2), bounds)
        if rep.found:
            finds += 1
            if not verify_witness(rep.witness, coloring, table):
                clean = False
        elif rep.status not in ("exhausted", "budget"):
            clean = False
    report(
        7,
        "Brauer k=2 witnesses on random 2-colorings (soft 90%)",
        clean and finds >= 45,
        f"finds={finds}/50 clean={clean}",
    )


def test_criterion_08_hj_homomorphism(report, table_100k):
    t0 = time.perf_counter()
    positions = (1, 2, 3, 4)
    bad = 0
    checked = 0
    for q in (1, 2, 3):
        words = [
            LocatedWord(q, pairs) for pairs in oracles.all_words(len(positions), q)
        ]
        for w1, w2 in itertools.product(words, repeat=2):
            if w1.domain & w2.domain:
                continue
            lhs = h_project(concat(w1, w2), table_100k)
            rhs = star(
                h_project(w1, table_100k), h_project(w2, table_100k), table_100k
            )
            checked += 1
            if lhs != rhs:
                bad += 1
    elapsed = time.perf_counter() - t0
    report(
        8,
        "located-word projection is a homomorphism (exhaustive)",
        bad == 0 and checked > 0 and elapsed < 10.0,
        f"bad={bad} checked={checked} elapsed={elapsed:.1f}s",
    )


def test_criterion_09_hj_threshold_oracle(report):
    t0 = time.perf_counter()
    got = hj_threshold(2, 2, 3)
    want = oracles.hj_threshold_oracle(2, 2, 3)
    elapsed = time.perf_counter() - t0
    # DERIVED: independent oracle over all 2-colorings of the located
    # words gives 2 for a binary alphabet
    ok = got == want == 2 and elapsed < 60.0
    report(9, "tiny line-forcing threshold equals oracle", ok,
           f"got={got} want={want} elapsed={elapsed:.1f}s")


def test_criterion_10_phj_decomposition(report, table_100k):
    t0 = time.perf_counter()
    bad = 0
    checked = 0
    for q, n, d in itertools.product((1, 2), (1, 2, 3), (1, 2)):
        gammas = [
            tuple(g)
            for size in range(1, n + 1)
            for g in itertools.combinations(range(1, n + 1), size)
        ]
        for point in (PhjPoint._of(q, n, d, t) for t in oracles.grid_tuples(q, n, d)):
            for gamma in gammas:
                c = len(gamma)
                blocks = [
                    set(itertools.product(gamma, repeat=j)) for j in range(1, d + 1)
                ]
                base = []
                for j, comp in enumerate(point.components, start=1):
                    for tup in itertools.product(range(1, n + 1), repeat=j):
                        if tup not in blocks[j - 1]:
                            base.append(
                                (int(comp[tuple(i - 1 for i in tup)]), 1)
                            )
                for xs in itertools.product(range(1, q + 1), repeat=d):
                    lhs = m_project(
                        phj_substitute(point, gamma, xs), table_100k
                    )
                    mono = base + [(xs[j], c ** (j + 1)) for j in range(d)]
                    rhs = eval_monomial(mono, table_100k)
                    checked += 1
                    if lhs != rhs:
                        bad += 1
    elapsed = time.perf_counter() - t0
    report(
        10,
        "grid projection decomposition identity (exhaustive)",
        bad == 0 and checked > 0 and elapsed < 60.0,
        f"bad={bad} checked={checked} elapsed={elapsed:.1f}s",
    )


def test_criterion_11_performance(report, table_100m_timed):
    table, build_seconds = table_100m_timed
    rng = np.random.Generator(np.random.PCG64(17))
    n = 10**6
    # ranks below 2000 keep every pairwise product inside the 1e8 table,
    # so the timing covers real counting queries, not the prescreen
    ms = rng.integers(0, 2000, n, dtype=np.uint64)
    ns = rng.integers(0, 2000, n, dtype=np.uint64)
    star_many(ms[:1000], ns[:1000], table)  # warm path
    t0 = time.perf_counter()
    ranks, valid = star_many(ms, ns, table)
    per_call = (time.perf_counter() - t0) / n
    ok = (
        build_seconds <= 60.0
        and per_call <= 1e-6
        and bool(valid.all())
        and ranks.shape[0] == n
    )
    report(
        11,
        "1e8 sieve under 60s, star calls under 1us amortized",
        ok,
        f"build={build_seconds:.1f}s per_call={per_call * 1e9:.0f}ns",
    )


def test_criterion_12_cache_round_trip(report, tmp_path):
    t0 = time.perf_counter()
    table = build_table(10**7)
    p1 = str(tmp_path / "a.sgt")
    p2 = str(tmp_path / "b.sgt")
    save_cache(table, p1)
    back = load_cache(p1)
    save_cache(back, p2)
    identical = Path(p1).read_bytes() == Path(p2).read_bytes()
    data = Path(p1).read_bytes()
    trunc = str(tmp_path / "t.sgt")
    Path(trunc).write_bytes(data[: len(data) // 2])
    try:
        load_cache(trunc)
        truncation_detected = False
    except CorruptCacheError:
        truncation_detected = True
    elapsed = time.perf_counter() - t0
    ok = identical and truncation_detected and elapsed < 5.0
    report(
        12,
        "1e7 cache round-trip byte-identical, truncation detected",
        ok,
        f"identical={identical} truncated={truncation_detected} "
        f"elapsed={elapsed:.1f}s",
    )
