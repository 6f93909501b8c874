"""Span tracing of the sqstar layers, installed from outside the package.

`Tracer.install()` replaces every public function and public method that
the seven layer modules define with a timing wrapper, in every sqstar
module namespace that binds it (the package namespace, `search` holding
`generate_configuration`, `hjlab` holding `eval_monomial`, ...).  Calls
made through private helpers therefore still land in the span of the
public function that the helper calls.  `uninstall()` puts the originals
back.

A span has a name (`<layer>.<function>`), a start, an end, a parent span
and the benchmark operation id current when it opened.  Spans stay in
memory (up to `max_spans`; aggregates are exact beyond that) and are
written out by `write_spans` when the run ends.  Self time is a span's
duration minus the time covered by its child spans.

Generator functions (`config_values`, `enumerate_all`, ...) do their work
while being iterated, so each resumption is timed as its own span of the
generator's name; `calls` counts generators created and `items` counts
values yielded.
"""

from __future__ import annotations

import array
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("ground", "semigroup", "colorings", "patterns", "search", "hjlab", "cli")

# Subcommands of `sqstar.cli.main`, used to split CLI time by command.
_CLI_COMMANDS = (
    "build-cache", "member", "op", "power", "rank", "element", "fp",
    "pattern", "search", "threshold", "hj", "phj", "verify",
)


def _family(spec) -> str:
    import sqstar.patterns as pat

    return pat.FAMILY_NAMES.get(type(spec), type(spec).__name__)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


class Tracer:
    def __init__(self, max_spans: int = 500_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # span storage, one entry per finished span
        self.s_name = array.array("i")
        self.s_parent = array.array("q")
        self.s_op = array.array("q")
        self.s_start = array.array("d")
        self.s_end = array.array("d")
        self.spans_seen = 0
        # per-name aggregates: calls, inclusive seconds, self seconds, items
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.items = defaultdict(int)
        # keyed extras filled by result hooks (e.g. nodes per family)
        self.extra = defaultdict(float)
        self.op = -1
        self.enabled = True  # False while the benchmark checks outputs
        self._stack: list[list] = []  # [name_id, start, child_seconds, span_id]
        self._saved: list[tuple] = []
        self.t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        import sqstar

        mods = [sqstar] + [sys.modules[f"sqstar.{m}"] for m in LAYERS]
        wrapped: dict[int, object] = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                layer = self._layer_of(obj)
                if layer is None:
                    continue
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException) or id(obj) in wrapped:
                        continue
                    wrapped[id(obj)] = obj
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        self._replace(obj, mname, meth, self._wrap(meth, f"{layer}.{mname}"))
                elif inspect.isfunction(obj):
                    w = wrapped.get(id(obj))
                    if w is None:
                        w = wrapped[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                    self._replace(mod, attr, obj, w)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    @staticmethod
    def _layer_of(obj):
        mod = getattr(obj, "__module__", None) or ""
        if not mod.startswith("sqstar."):
            return None
        layer = mod.split(".", 1)[1]
        return layer if layer in LAYERS else None

    def _replace(self, owner, attr, orig, new) -> None:
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, new)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # ------------------------------------------------------------------
    # spans

    def _open(self, nid: int) -> list:
        frame = [nid, time.perf_counter(), 0.0, self.spans_seen]
        self.spans_seen += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame) -> float:
        end = time.perf_counter()
        self._stack.pop()
        nid, start, child, span_id = frame
        dur = end - start
        self.self_s[nid] += dur - child
        self.incl[nid] += dur
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[3]
        if len(self.s_name) < self.max_spans:
            self.s_name.append(nid)
            self.s_parent.append(parent)
            self.s_op.append(self.op)
            self.s_start.append(start - self.t0)
            self.s_end.append(end - self.t0)
        return dur

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = _HOOKS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.calls[nid] += 1
                return tracer._iterate(fn(*args, **kwargs), nid)

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[nid] += 1
            frame = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(frame)
            if hook is not None:
                hook(tracer, args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, gen, nid):
        try:
            while True:
                frame = self._open(nid)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(frame)
                self.items[nid] += 1
                yield value
        finally:
            gen.close()

    # ------------------------------------------------------------------
    # results

    def stat(self, name: str):
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0
        return self.calls[nid], self.incl[nid], self.items[nid]

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for nid, s in self.self_s.items():
            out[self.names[nid].split(".", 1)[0]] += s
        return out

    def write_spans(self, path: str) -> None:
        """Write the retained spans as gzipped JSON lines, one per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "spans_seen": self.spans_seen,
                                 "spans_kept": len(self.s_name)}) + "\n")
            for i in range(len(self.s_name)):
                fh.write(
                    f'{{"name":{self.s_name[i]},"parent":{self.s_parent[i]},'
                    f'"op":{self.s_op[i]},"start":{self.s_start[i]:.9f},'
                    f'"end":{self.s_end[i]:.9f}}}\n'
                )


# ----------------------------------------------------------------------
# result hooks: counts that only the call's arguments or result carry


def _hook_find_witness(tr, args, kwargs, report, dur):
    fam = _family(_arg(args, kwargs, 2, "spec"))
    tr.extra["search.nodes"] += report.nodes
    tr.extra["search.skipped"] += report.skipped_out_of_range
    tr.extra[f"search.status.{report.status}"] += 1
    tr.extra[f"search.nodes.{fam}"] += report.nodes
    tr.extra[f"search.find_witness.s.{fam}"] += dur


def _hook_threshold(tr, args, kwargs, result, dur):
    fam = _family(_arg(args, kwargs, 0, "spec"))
    tr.extra[f"search.threshold.s.{fam}"] += dur
    tr.extra[f"search.threshold.calls.{fam}"] += 1


def _hook_count_below_many(tr, args, kwargs, result, dur):
    tr.extra["ground.count_below_many.queries"] += len(result)


def _hook_star_many(tr, args, kwargs, result, dur):
    tr.extra["semigroup.star_many.pairs"] += len(result[0])


def _hook_nodes(key):
    def hook(tr, args, kwargs, report, dur):
        tr.extra[key] += report.nodes

    return hook


def _hook_cli_main(tr, args, kwargs, rc, dur):
    argv = _arg(args, kwargs, 0, "argv") or []
    cmd = next((a for a in argv if a in _CLI_COMMANDS), "other")
    tr.extra[f"cli.{cmd}.s"] += dur
    tr.extra[f"cli.{cmd}.calls"] += 1


_HOOKS = {
    "search.find_witness": _hook_find_witness,
    "search.threshold": _hook_threshold,
    "ground.count_below_many": _hook_count_below_many,
    "semigroup.star_many": _hook_star_many,
    "hjlab.hj_search": _hook_nodes("hjlab.hj_search.nodes"),
    "hjlab.phj_search": _hook_nodes("hjlab.phj_search.nodes"),
    "cli.main": _hook_cli_main,
}
