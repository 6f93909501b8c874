"""Command-line surface for the package.

One invocation maps to one library call: cache building, pointwise
queries, pattern generation, witness search, exhaustive thresholds, and
witness verification.  Output comes in two formats: human (plain lines,
timings allowed) and structured (a single JSON document with stable
field names; identical inputs produce byte-identical documents, so no
timing fields appear there).

Exit codes: 0 success or witness found; 1 search exhausted / nothing
found; 2 usage error; 3 a value or requested range beyond the table;
4 corrupt or inconsistent input documents.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import colorings as col
from . import ground
from . import hjlab
from . import patterns as pat
from . import search as srch
from .errors import (
    CorruptCacheError,
    EnumerationCapError,
    MalformedWitnessError,
    NotMemberError,
    OutOfDomainError,
    OutOfRangeError,
    ResourceBudgetError,
    SchemaViolationError,
)
from .semigroup import power, star

DEFAULT_BUILD_LIMIT = 10**7
DEFAULT_CACHE_NAME = "sigma-default.sgt"
ENV_CACHE_DIR = "SQSTAR_CACHE_DIR"


class _CliError(Exception):
    """Usage-level problem detected after argparse."""


# the error kind and exit code of each exception a command may raise
# (OSError: a missing, unreadable or directory path); others propagate
_EXITS = (
    ((OutOfRangeError,), "out-of-range", 3),
    ((CorruptCacheError, SchemaViolationError, MalformedWitnessError), "corrupt-input", 4),
    ((_CliError, ValueError, NotMemberError, EnumerationCapError, ResourceBudgetError,
      OutOfDomainError, OSError), "usage", 2),
)


def _emit(args, doc: dict, human_lines) -> None:
    if args.format == "structured":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(str(line) + "\n")


def _emit_error(args, kind: str, message: str) -> None:
    if getattr(args, "format", "human") == "structured":
        doc = {"error": kind, "message": message}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        sys.stderr.write(f"error ({kind}): {message}\n")


def _get_table(args, min_limit: int | None = None) -> ground.GroundTable:
    """Resolve the ground table: explicit cache, default cache, or build.

    An explicit cache that is too small is an out-of-range condition (the
    caller asked for values it cannot cover); with no cache at all an
    in-memory table is built at the default limit, enlarged if needed.
    """
    env = os.environ.get(ENV_CACHE_DIR)
    path = args.cache or (env and os.path.join(env, DEFAULT_CACHE_NAME))
    if path and os.path.exists(path):
        table = ground.load_cache(path)
        if min_limit is not None and table.limit < min_limit:
            raise OutOfRangeError(
                f"cache limit {table.limit} below required {min_limit}; rebuild it"
            )
        return table
    if args.cache:
        raise _CliError(f"cache file {args.cache} does not exist")
    limit = max(DEFAULT_BUILD_LIMIT, min_limit or 0)
    sys.stderr.write(
        f"warning: no cache configured, building an in-memory table "
        f"(limit {limit}); use build-cache and --cache to avoid this\n"
    )
    return ground.build_table(limit)


def _parse_coloring(desc: str, bound: int | None) -> col.Coloring:
    """Build a coloring from any descriptor colorings.from_provenance
    reads, so a witness's provenance string is itself one; a bound given
    via flag fills in when the descriptor carries none."""
    if desc.startswith("file:"):
        return col.from_provenance(desc)
    try:
        return col.from_provenance(desc, bound)
    except SchemaViolationError as exc:
        raise _CliError(str(exc)) from exc


def _build_spec(args, entries=()):
    """PatternSpec from family flags; the --gen entries only size fpf/deuber."""
    cls = pat.FAMILIES[args.family]
    params = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)}
    if entries and args.family == "fpf" and params["k"] is None:
        params["k"] = len(entries)
    if entries and args.family == "deuber" and params["m"] is None:
        params["m"] = len(entries) - 1
    missing = [f"--{name}" for name, v in params.items() if v is None]
    if missing:
        raise _CliError(f"{args.family} needs {' and '.join(missing)}")
    return cls(**{name: pat.PARAMS[name][1](v) for name, v in params.items()})


def _build_generators(spec, tokens):
    """Generator assignment from the --gen tokens of the pattern command.

    One token per layout key; a family whose only key is a rank sequence
    (fpf, deuber, mt) takes every token as one of its entries.
    """
    layout = spec.layout
    if len(layout) == 1:
        tokens = [",".join(tokens)]
    if len(tokens) != len(layout):
        usage = " ".join(key.upper() for key, _, _ in layout)
        raise _CliError(f"{spec.family} takes --gen {usage}")
    try:
        return {key: kind.parse(tok) for (key, kind, _), tok in zip(layout, tokens)}
    except ValueError as exc:
        raise _CliError(f"bad --gen value: {exc}") from exc


def _add_family_flags(sp):
    sp.add_argument("--family", required=True, choices=list(pat.FAMILIES))
    for name, (_, parse) in pat.PARAMS.items():
        sp.add_argument(f"--{name}", type=int if parse is int else str, default=None)


def _word_pairs(word):
    return [[int(p), int(a)] for p, a in word.letters]


def _scan_result(args, rep, skipped: int, coloring, doc: dict, lines, timing="") -> int:
    """Emit the head that search, hj and phj share (status, nodes, skipped,
    coloring) with the command's own fields (doc) and lines; return the
    exit code, 0 on a hit and 1 otherwise."""
    doc.update(status=rep.status, nodes=rep.nodes, skipped=skipped,
               coloring=coloring.provenance)
    head = f"status: {rep.status} (nodes {rep.nodes}, skipped {skipped}{timing})"
    _emit(args, doc, [head, *lines])
    return 0 if rep.found else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sqstar",
        description="Sums-of-two-squares counting semigroup: queries, "
        "pattern search, verification.",
    )
    ap.add_argument("--format", choices=["human", "structured"], default="human")
    ap.add_argument("--cache", type=str, default=None,
                    help="path to a binary ground-table cache")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-cache", help="sieve a table and write it to disk")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("member", help="two-squares membership of an integer")
    p.add_argument("n", type=int)

    p = sub.add_parser("op", help="induced product of two ranks")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("power", help="iterated induced product")
    p.add_argument("x", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("rank", help="rank of a ground-set member")
    p.add_argument("s", type=int)

    p = sub.add_parser("element", help="member with a given rank")
    p.add_argument("n", type=int)

    p = sub.add_parser("fp", help="finite products of a rank sequence")
    p.add_argument("xs", type=int, nargs="+")

    p = sub.add_parser("pattern", help="generate one configuration")
    _add_family_flags(p)
    p.add_argument("--gen", type=str, nargs="+", required=True)

    p = sub.add_parser("search", help="find a monochromatic configuration")
    _add_family_flags(p)
    p.add_argument("--coloring", type=str, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--gen-max", type=int, default=64)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--include-identity", action="store_true")
    p.add_argument("--out", type=str, default=None,
                   help="write the witness document here")

    p = sub.add_parser("threshold", help="exhaustive forcing bound (backtracking search)")
    _add_family_flags(p)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--start-bound", type=int, default=2)
    p.add_argument("--max-bound", type=int, required=True)

    p = sub.add_parser("hj", help="located combinatorial line search")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ap-k", type=int, default=None)
    p.add_argument("--coloring", type=str, default=None)
    p.add_argument("--bound", type=int, default=100000)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("phj", help="polynomial grid line search")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coloring", type=str, default=None)
    p.add_argument("--bound", type=int, default=100000)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("verify", help="re-check a witness document")
    p.add_argument("--witness", type=str, required=True)
    p.add_argument("--coloring", type=str, default=None)
    p.add_argument("--bound", type=int, default=None)

    return ap


# argparse keeps no state between parse_args calls, so one parser serves
# every in-process invocation; building it costs about 2 ms.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _dispatch(args)
    except tuple(t for types, _, _ in _EXITS for t in types) as exc:
        kind, code = next((kind, code) for types, kind, code in _EXITS if isinstance(exc, types))
        _emit_error(args, kind, str(exc))
        return code


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "build-cache":
        table = ground.build_table(args.limit)
        ground.save_cache(table, args.out)
        doc = {
            "limit": table.limit,
            "size": table.size,
            "predicate": "sigma",
            "path": args.out,
        }
        _emit(args, doc, [f"wrote {args.out}: {table.size} members below {table.limit}"])
        return 0

    if cmd == "member":
        ok = ground.is_member(args.n)
        _emit(args, {"n": args.n, "member": ok}, ["true" if ok else "false"])
        return 0

    if cmd == "op":
        table = _get_table(args)
        r = star(args.m, args.n, table)
        _emit(args, {"m": args.m, "n": args.n, "result": r}, [r])
        return 0

    if cmd == "power":
        table = _get_table(args)
        r = power(args.x, args.n, table)
        _emit(args, {"x": args.x, "n": args.n, "result": r}, [r])
        return 0

    if cmd == "rank":
        table = _get_table(args, min_limit=args.s + 1 if args.s >= 0 else None)
        r = table.rank(args.s)
        _emit(args, {"s": args.s, "rank": r}, [r])
        return 0

    if cmd == "element":
        table = _get_table(args)
        s = table.element(args.n)
        _emit(args, {"n": args.n, "element": s}, [s])
        return 0

    if cmd == "fp":
        table = _get_table(args)
        vals = pat.generate_configuration(pat.FpF(len(args.xs)), {"xs": args.xs}, table)
        _emit(args, {"xs": args.xs, "products": vals},
              [" ".join(str(v) for v in vals)])
        return 0

    if cmd == "pattern":
        spec = _build_spec(args, ",".join(args.gen).split(","))  # a token may hold several entries
        gens = _build_generators(spec, args.gen)
        table = _get_table(args)
        config = pat.generate_configuration(spec, gens, table)
        doc = {
            "spec": pat.spec_to_doc(spec),
            "generators": pat.generators_to_doc(spec, gens),
            "configuration": [int(v) for v in config],
        }
        _emit(args, doc, [" ".join(str(v) for v in config)])
        return 0

    if cmd == "search":
        spec = _build_spec(args)
        coloring = _parse_coloring(args.coloring, args.bound)
        bounds = srch.SearchBounds(
            generator_max=args.gen_max,
            value_bound=args.bound,
            node_budget=args.budget,
            include_identity=args.include_identity,
        )
        bounds.check_coloring(coloring)  # before a table is built for nothing
        table = _get_table(args)
        report = srch.find_witness(table, coloring, spec, bounds)
        doc = {"witness": pat.witness_to_doc(report.witness) if report.witness else None}
        human = []
        if report.witness:
            human.append(f"generators: {report.witness.generators}")
            human.append(
                "configuration: "
                + " ".join(str(v) for v in report.witness.configuration)
            )
            human.append(f"color: {report.witness.color}")
            if args.out:
                pat.save_witness(report.witness, args.out)
                human.append(f"witness written to {args.out}")
        return _scan_result(args, report, report.skipped_out_of_range, coloring, doc,
                            human, f", {report.elapsed:.3f}s")

    if cmd == "threshold":
        spec = _build_spec(args)
        table = _get_table(args)
        n = srch.threshold(spec, args.colors, args.start_bound, args.max_bound, table)
        doc = {
            "spec": pat.spec_to_doc(spec),
            "colors": args.colors,
            "threshold": n,
        }
        _emit(args, doc, [n if n is not None else "none"])
        return 0 if n is not None else 1

    if cmd == "hj":
        table = _get_table(args)
        desc = args.coloring or f"random:seed=0,r={args.r}"
        coloring = _parse_coloring(desc, args.bound)
        wc = hjlab.word_coloring(coloring, table)
        rep = hjlab.hj_search(args.q, wc, args.n, ap_k=args.ap_k,
                              node_budget=args.budget)
        doc = {
            "alpha": _word_pairs(rep.alpha) if rep.alpha is not None else None,
            "gamma": list(rep.gamma) if rep.gamma else None,
            "family-set": list(rep.family_set) if rep.family_set else None,
            "color": rep.color,
            "line": [_word_pairs(w) for w in rep.line] if rep.line else None,
        }
        human = []
        if rep.found:
            human.append(f"alpha: {_word_pairs(rep.alpha)}  gamma: {list(rep.gamma)}")
            if rep.family_set:
                human.append(f"family set: {list(rep.family_set)}")
            human.append(f"color: {rep.color}")
        return _scan_result(args, rep, rep.skipped, coloring, doc, human)

    if cmd == "phj":
        table = _get_table(args)
        desc = args.coloring or f"random:seed=0,r={args.colors}"
        coloring = _parse_coloring(desc, args.bound)
        pc = hjlab.point_coloring(coloring, table)
        rep = hjlab.phj_search(args.q, args.colors, args.d, args.n, pc,
                               node_budget=args.budget)
        doc = {
            "point": rep.point.to_doc() if rep.point is not None else None,
            "gamma": list(rep.gamma) if rep.gamma else None,
            "color": rep.color,
        }
        human = [f"gamma: {list(rep.gamma)}  color: {rep.color}"] if rep.found else []
        return _scan_result(args, rep, rep.skipped, coloring, doc, human)

    # verify: argparse admits only the commands above and this one
    w = pat.load_witness(args.witness)
    if args.coloring:
        coloring = _parse_coloring(args.coloring, args.bound)
    else:
        coloring = col.from_provenance(w.coloring_provenance, args.bound)
    table = _get_table(args, min_limit=w.table_limit)
    ok = srch.verify_witness(w, coloring, table)
    doc = {"witness": args.witness, "valid": bool(ok)}
    _emit(args, doc, ["valid" if ok else "INVALID"])
    return 0 if ok else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
