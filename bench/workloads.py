"""The three benchmark workloads and their output checks.

Each workload is a closed loop: one caller in one thread starts the next
operation only after the previous one returns.  A workload has a set-up
(timed several times back to back, `setup_s` is their median) and a round:
a fixed list of program calls whose inputs derive from the seed.  The
round runs again, on the same inputs, as long as the run's seconds last;
each run of it is a pass, and at least one always runs.

Every program call goes through the module attributes of `sqstar` at
call time (never through names bound at import), so the tracer's
wrappers see them.  Only API that survives the planned ground, pattern
and search rewrites is used: no `_kernels`, numba switches, `mode=` or
`workers=`, `gen_*` functions or `GroundTable.elements`.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import time

import numpy as np

import sqstar
import sqstar.cli

COLOR_BOUND = 5000


def _seq(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Run:
    """Operation accounting for one benchmark run.

    `op()` times one program call and appends its time to `op_times`;
    `check()` records one output check.  Checks run inside `checking()`,
    which pauses the tracer and keeps their time out of the round's wall
    time.
    """

    def __init__(self, seed: int, smoke: bool, workdir: str, tracer=None):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.op_times: list[float] = []
        self.check_s = 0.0
        self.extra: dict = {}

    def op(self, fn, *args, latency=False, **kwargs):
        """Call fn once as a benchmark operation; returns (result, seconds).

        An exception counts as a failed check and yields result None.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing program call must not end the run
            dt = time.perf_counter() - t0
            self.op_times.append(dt)
            self.failures.append(
                f"{getattr(fn, '__name__', fn)} raised {type(exc).__name__}: {exc}")
            return None, dt
        dt = time.perf_counter() - t0
        self.op_times.append(dt)
        if latency:
            self.latencies.append(dt)
        return result, dt

    def check(self, ok, what: str) -> None:
        if not ok:
            self.failures.append(what)

    @contextlib.contextmanager
    def checking(self):
        t0 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
            self.check_s += time.perf_counter() - t0

    def add(self, key: str, value) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


# ----------------------------------------------------------------------
# independent ground-set oracle: a^2 + b^2 enumeration, no table involved


class SquareSums:
    """Sorted sums of two squares below a limit, from direct enumeration."""

    def __init__(self, limit: int):
        side = int(np.sqrt(limit)) + 1
        a = np.arange(side, dtype=np.int64)
        grid = (a[:, None] ** 2 + a[None, :] ** 2).ravel()
        self.values = np.unique(grid[grid < limit]).tolist()
        self.limit = limit

    def s(self, n: int) -> int:
        return self.values[n]

    def rank(self, p: int) -> int:
        i = bisect.bisect_left(self.values, p)
        if p >= self.limit or self.values[i] != p:
            raise ValueError(f"{p} is not a sum of two squares below {self.limit}")
        return i

    def configuration(self, family: str, spec, gens: dict) -> tuple:
        """A witness configuration recomputed from its generators."""
        s, rank = self.s, self.rank
        out = set()
        if family == "fpf":
            xs = gens["xs"]
            for size in range(1, len(xs) + 1):
                for sub in itertools.combinations(xs, size):
                    out.add(rank(math.prod(s(x) for x in sub)))
        elif family == "brauer":
            x, z = gens["x"], gens["z"]
            out |= {x, z}
            out |= {rank(s(x) ** j * s(z)) for j in range(1, spec.k + 1)}
        elif family == "deuber":
            xs = gens["xs"]
            out.add(xs[0])
            for j in range(1, spec.m + 1):
                for expo in itertools.product(range(spec.p + 1), repeat=j):
                    p = s(xs[j])
                    for i in range(j):
                        p *= s(xs[i]) ** expo[i]
                    out.add(rank(p))
        elif family == "mt":
            if not isinstance(spec.phi, sqstar.PhiSum):
                raise ValueError("oracle covers mt with the sum map only")
            xs = gens["xs"]
            for blocks in _ordered_blocks(len(xs), spec.m):
                vals = []
                for blk in blocks:
                    p = 1
                    for t in blk:
                        p *= s(xs[t])
                    vals.append(rank(p))
                out.add(sum(vals))
        elif family == "geo":
            (b, eb), = gens["b"]
            base = s(b) ** eb
            g = 1
            for t in set(gens["gamma"]):
                g *= s(t)
            for i in range(spec.k + 1):
                for j in range(spec.k + 1):
                    out.add(rank(base * (g * s(gens["a"] + i * gens["d"])) ** j))
        elif family == "pvw":
            (b, eb), = gens["b"]
            c = gens["c"]
            for f in spec.sets:
                p = s(b) ** eb
                for j, a in enumerate(f):
                    p *= s(a) ** (c ** (j + 1))
                out.add(rank(p))
        else:
            raise ValueError(f"no oracle for family {family!r}")
        return tuple(sorted(out))


def _ordered_blocks(length: int, m: int):
    """Tuples of m nonempty position blocks, each wholly before the next."""
    if m == 0:
        yield ()
        return
    for end in range(length):
        for size in range(1, end + 2):
            for first in itertools.combinations(range(end + 1), size):
                if first[-1] != end:
                    continue
                for rest in _ordered_blocks(length - end - 1, m - 1):
                    yield (first,) + tuple(tuple(t + end + 1 for t in blk) for blk in rest)


def _family(spec) -> str:
    return sqstar.patterns.FAMILY_NAMES[type(spec)]


# ----------------------------------------------------------------------
# table-1e8: build-cache once, then CLI search -> verify on the big cache


class Table1e8:
    name = "table-1e8"

    def __init__(self, smoke: bool):
        self.limit = 10**6 if smoke else 10**8
        self.setups = 1 if smoke else 2
        self.pairs = 2 if smoke else 8
        self.star_pairs = 10_000 if smoke else 500_000
        self.star_checks = 200 if smoke else 2_000
        self.rank_max = 2000
        self.laws = 100

    def _cli(self, run: Run, argv, latency=True):
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return sqstar.cli.main(argv)

        rc, dt = run.op(call, latency=latency)
        try:
            doc = json.loads(buf.getvalue())
        except json.JSONDecodeError:
            doc = {}
        return rc, doc, dt

    def setup_once(self, run: Run):
        path = os.path.join(run.workdir, "sigma.sgt")
        argv = ["--format", "structured", "build-cache",
                "--limit", str(self.limit), "--out", path]
        rc, doc, dt = self._cli(run, argv, latency=False)
        with run.checking():
            run.check(rc == 0, f"build-cache exit {rc}")
            run.check(doc.get("limit") == self.limit, "build-cache limit")
            size = doc.get("size")
            prev = run.extra.setdefault("table_size", size)
            run.check(size == prev and size, "build-cache size differs between builds")
            run.extra["cache_mb"] = os.path.getsize(path) / 1e6 if os.path.exists(path) else 0.0
        return path, dt

    def round(self, run: Run, path: str) -> dict:
        rng = _seq(run.seed)
        cache = ["--format", "structured", "--cache", path]
        nodes = skipped = 0
        witnesses = []
        for k, cseed in enumerate(rng.integers(0, 2**31, size=self.pairs).tolist()):
            wpath = os.path.join(run.workdir, f"witness-{k}.json")
            argv = cache + ["search", "--family", "brauer", "--k", "2",
                            "--coloring", f"random:seed={cseed},r=2",
                            "--bound", str(COLOR_BOUND), "--gen-max", "64",
                            "--out", wpath]
            rc, doc, _ = self._cli(run, argv)
            with run.checking():
                run.check(rc == 0 and doc.get("status") == "witness",
                          f"search seed={cseed}: exit {rc}, status {doc.get('status')}")
                nodes += doc.get("nodes", 0)
                skipped += doc.get("skipped", 0)
                witnesses.append((doc.get("witness") or {}).get("generators"))
            rc, doc, _ = self._cli(run, cache + ["verify", "--witness", wpath])
            with run.checking():
                run.check(rc == 0 and doc.get("valid") is True,
                          f"verify seed={cseed}: exit {rc}, valid {doc.get('valid')}")
        table, _ = run.op(sqstar.load_cache, path)
        ms = rng.integers(0, self.rank_max, size=self.star_pairs)
        ns = rng.integers(0, self.rank_max, size=self.star_pairs)
        out, dt = run.op(sqstar.star_many, ms, ns, table)
        laws, _ = run.op(sqstar.verify_laws, self.laws, table)
        with run.checking():
            run.check(table is not None and table.limit == self.limit, "load_cache limit")
            run.add("star_pairs", self.star_pairs)
            run.add("star_s", dt)
            if out is not None and table is not None:
                ranks, valid = out
                for j in rng.choice(self.star_pairs, size=self.star_checks, replace=False).tolist():
                    m, n, r = int(ms[j]), int(ns[j]), int(ranks[j])
                    p = table.element(m) * table.element(n)
                    if bool(valid[j]) != (p < self.limit) or (valid[j] and table.element(r) != p):
                        run.check(False, f"star_many({m},{n}) = {r}, valid {valid[j]}: wrong")
                        break
            run.check(laws is not None and laws.ok, "verify_laws(100) failed")
        del table, out
        return {"search.nodes": nodes,
                "search.skipped": skipped, "witness_digest": digest(witnesses)}


# ----------------------------------------------------------------------
# search-sweep: least-witness search over all six families on a 1e6 table


def _families():
    return [
        sqstar.FpF(3),
        sqstar.Brauer(2),
        sqstar.Deuber(1, 2),
        sqstar.MillikenTaylor(1, sqstar.PhiSum()),
        sqstar.GeoArithmetic(1),
        sqstar.PolyVdW(1, ((2,),)),
    ]


# Colorings per r, per family, in a search-sweep round, and the number of
# hj_search/phj_search pairs.  A search's cost depends on how deep its
# coloring's least witness lies.  FpF(3) and GeoArithmetic(1) searches
# cost 20-700 ms and vary most between colorings, the other families a
# few ms, so the cheap families get more colorings.  This keeps every
# family visible in the round and the round's cost steady across seeds
# (9-13 s at this commit).
COLORINGS_PER_ROUND = {"fpf": 1, "brauer": 96, "deuber": 96, "mt": 48, "geo": 3, "pvw": 12}
HJ_PER_ROUND = 96


class SearchSweep:
    name = "search-sweep"

    def __init__(self, smoke: bool):
        self.limit = 10**6
        self.setups = 1 if smoke else 9
        self.per_round = {f: 1 for f in COLORINGS_PER_ROUND} if smoke else COLORINGS_PER_ROUND
        self.hj_pairs = 1 if smoke else HJ_PER_ROUND
        self.colors = (2, 3, 8)
        self.bounds = sqstar.SearchBounds(
            generator_max=12, value_bound=COLOR_BOUND, node_budget=2000)
        self.oracle = None

    def setup_once(self, run: Run):
        table, dt = run.op(sqstar.build_table, self.limit)
        with run.checking():
            run.check(table is not None and table.limit == self.limit, "build_table limit")
            if self.oracle is None:
                self.oracle = SquareSums(self.limit)
        return table, dt

    def round(self, run: Run, table) -> dict:
        rng = _seq(run.seed)
        nodes = skipped = hj_nodes = 0
        witnesses = []
        statuses = {}
        for spec in _families():
            fam = _family(spec)
            for _ in range(self.per_round[fam]):
                for r in self.colors:
                    coloring, _ = run.op(sqstar.random_coloring,
                                         int(rng.integers(0, 2**31)), r, COLOR_BOUND)
                    rep, dt = run.op(sqstar.find_witness, table, coloring, spec,
                                     self.bounds, latency=True)
                    if rep is None:
                        continue
                    run.add("find_witness_s", dt)
                    run.add("find_witness_nodes", rep.nodes)
                    ok = None
                    if rep.found:
                        ok, _ = run.op(sqstar.verify_witness, rep.witness, coloring, table)
                    with run.checking():
                        nodes += rep.nodes
                        skipped += rep.skipped_out_of_range
                        statuses[rep.status] = statuses.get(rep.status, 0) + 1
                        run.check(rep.nodes <= self.bounds.node_budget, f"{fam}: budget overrun")
                        if rep.found:
                            w = rep.witness
                            witnesses.append([fam, w.generators])
                            run.check(ok is True, f"{fam}: verify_witness rejected {w.generators}")
                            self._check_witness(run, fam, spec, w, coloring)
        for _ in range(self.hj_pairs):
            coloring, _ = run.op(sqstar.random_coloring,
                                 int(rng.integers(0, 2**31)), 2, COLOR_BOUND)
            wc, _ = run.op(sqstar.word_coloring, coloring, table)
            rep, _ = run.op(sqstar.hj_search, 2, wc, 4, ap_k=1, node_budget=2000,
                            latency=True)
            with run.checking():
                if rep is not None:
                    hj_nodes += rep.nodes
                    if rep.found:
                        colors = [self._word_color(wd, coloring) for wd in rep.line]
                        run.check(set(colors) == {rep.color}, "hj_search line not monochromatic")
            coloring, _ = run.op(sqstar.random_coloring,
                                 int(rng.integers(0, 2**31)), 3, COLOR_BOUND)
            pc, _ = run.op(sqstar.point_coloring, coloring, table)
            rep, _ = run.op(sqstar.phj_search, 3, 3, 1, 3, pc, node_budget=2000,
                            latency=True)
            with run.checking():
                if rep is not None:
                    hj_nodes += rep.nodes
                    if rep.found:
                        colors = [self._point_color(p, coloring) for p in rep.line]
                        run.check(set(colors) == {rep.color}, "phj_search line not monochromatic")
        return {"search.nodes": nodes, "search.skipped": skipped, "hjlab.nodes": hj_nodes,
                "search.status": statuses, "witness_digest": digest(witnesses)}

    def _check_witness(self, run, fam, spec, w, coloring):
        try:
            expect = self.oracle.configuration(fam, spec, w.generators)
        except ValueError as exc:
            run.check(False, f"{fam}: oracle could not rebuild {w.generators}: {exc}")
            return
        run.check(tuple(w.configuration) == expect,
                  f"{fam}: configuration {w.configuration} != oracle {expect}")
        colors = {int(coloring.assignment[v]) for v in expect if v < coloring.bound}
        run.check(colors == {w.color} and max(expect) < coloring.bound,
                  f"{fam}: witness {w.generators} not monochromatic")

    def _word_color(self, word, coloring):
        p = 1
        for pos, letter in word.letters:
            p *= self.oracle.s(pos) ** letter
        v = self.oracle.rank(p)
        return int(coloring.assignment[v]) if v < coloring.bound else None

    def _point_color(self, point, coloring):
        p = 1
        for comp in point.components:
            for letter in comp.ravel().tolist():
                p *= self.oracle.s(letter)
        v = self.oracle.rank(p)
        return int(coloring.assignment[v]) if v < coloring.bound else None


# ----------------------------------------------------------------------
# threshold-exhaustive: exhaustive forcing thresholds with pinned answers


class ThresholdExhaustive:
    name = "threshold-exhaustive"

    def __init__(self, smoke: bool):
        self.limit = 10**5
        # a 10 ms build: enough samples that the median is a warm build
        self.setups = 1 if smoke else 25
        # (label, call, pinned answer); Brauer(1), r=2 -> 16 is also pinned
        # by the package's own search tests
        cases = [
            ("threshold brauer k=1", "threshold", (sqstar.Brauer(1), 2, 1, 16), 16),
            ("threshold fpf k=2", "threshold", (sqstar.FpF(2), 2, 1, 16), 16),
            ("threshold deuber m=1 p=1", "threshold", (sqstar.Deuber(1, 1), 2, 1, 16), 16),
            ("threshold geo k=1", "threshold", (sqstar.GeoArithmetic(1), 2, 1, 16), 16),
            ("hj_threshold(2,2,3)", "hj_threshold", (2, 2, 3), 2),
            ("hj_threshold(3,2,2)", "hj_threshold", (3, 2, 2), None),
            ("phj_threshold(2,2,1,3)", "phj_threshold", (2, 2, 1, 3), 2),
        ]
        if smoke:  # the pattern thresholds take ~1-30 s each; keep only Brauer
            cases = [c for c in cases if c[1] != "threshold" or "brauer" in c[0]]
        self.cases = cases

    def setup_once(self, run: Run):
        table, dt = run.op(sqstar.build_table, self.limit)
        with run.checking():
            run.check(table is not None and table.limit == self.limit, "build_table limit")
        return table, dt

    def round(self, run: Run, table) -> dict:
        # the inputs are pinned; the seed only orders the calls
        order = _seq(run.seed).permutation(len(self.cases)).tolist()
        answers = {}
        for k in order:
            label, fn_name, args, pinned = self.cases[k]
            fn = getattr(sqstar, fn_name)
            call_args = args + (table,) if fn_name == "threshold" else args
            got, _ = run.op(fn, *call_args, latency=True)
            with run.checking():
                answers[label] = got
                run.check(got == pinned, f"{label} = {got}, pinned {pinned}")
        return {"threshold_answers": {k: answers[k] for k in sorted(answers)}}


WORKLOADS = {w.name: w for w in (Table1e8, SearchSweep, ThresholdExhaustive)}
