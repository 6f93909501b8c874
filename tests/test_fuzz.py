"""Fuzzed parser input: malformed documents raise only the parser's own error."""

import json
import struct
import zlib

import numpy as np
import pytest

import oracles

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sqstar import (  # noqa: E402
    MalformedWitnessError,
    build_table,
    load_cache,
    patterns,
    save_cache,
)
from sqstar.colorings import coloring_from_doc, from_provenance  # noqa: E402
from sqstar.errors import (  # noqa: E402
    CorruptCacheError,
    ResourceBudgetError,
    SchemaViolationError,
)
from sqstar.patterns import witness_from_doc  # noqa: E402


# any JSON value, and documents that are a valid one with one entry
# replaced by any JSON value or removed
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(
        doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _mutated(draw, doc):
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from([p for p in _paths(doc) if p]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        parent[path[-1]] = draw(_JSON)
    elif isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent.pop(path[-1])
    return doc


_WITNESS_DOC = {
    "spec": {"family": "geo", "params": {"k": 1}},
    "generators": {"b": [[2, 1]], "gamma": [3], "a": 1, "d": 2},
    "configuration": [2, 5, 9], "color": 1,
    "coloring-provenance": "random:pcg64:seed=0,r=2,bound=100", "table-limit": 1000,
}
_PARSERS = [
    (witness_from_doc, _WITNESS_DOC, MalformedWitnessError),
    (patterns.spec_from_doc, {"family": "mt", "params": {"m": 2, "phi": "linear:1;2:3"}},
     MalformedWitnessError),
    (patterns.spec_from_doc, {"family": "pvw", "params": {"d": 2, "sets": [[2, 3]]}},
     MalformedWitnessError),
    (lambda doc: coloring_from_doc(doc, "file:fuzz"), {"r": 2, "bound": 3, "colors": [1, 2, 1]},
     SchemaViolationError),
]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_document_parsers_raise_only_their_errors(data):
    """Malformed witness, spec and coloring documents raise the parser's
    own error, nothing else."""
    parse, valid, error = data.draw(st.sampled_from(_PARSERS))
    parse(valid)
    doc = data.draw(_JSON | _mutated(valid))
    try:
        parse(doc)
    except error:
        pass


# valid random: and periodic: descriptors, split at their last ':' into a
# head and comma-separated fields; a drawn bound is at most 10^4 or at
# least 10^12, where the memory guard refuses it before any allocation
_DESCRIPTORS = [
    "random:pcg64:seed=3,r=2,bound=50",
    "random:seed=3,r=3",
    "periodic:q=3,r=2,bound=50",
    "periodic:q=3,map=1;2;2",
]
_HEADS = ["random", "random:pcg64", "periodic", "periodic:pcg64", "rand", ""]
_BOUNDS = st.integers(-2, 10**4) | st.integers(10**12, 10**16)
_VALUES = _BOUNDS.map(str) | st.text("0123456789;=,:-x", max_size=4)


@st.composite
def _descriptor(draw):
    """A valid descriptor with one to three fields replaced, removed,
    repeated or added, or its head replaced."""
    head, _, rest = draw(st.sampled_from(_DESCRIPTORS)).rpartition(":")
    fields = rest.split(",")
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["value", "drop", "repeat", "add", "head"]))
        i = draw(st.integers(0, max(len(fields) - 1, 0)))
        if kind == "head":
            head = draw(st.sampled_from(_HEADS))
        elif kind == "add" or not fields:
            key = draw(st.sampled_from(["seed", "r", "q", "map", "bound", "x"]))
            fields.append(f"{key}={draw(_VALUES)}")
        elif kind == "value":
            fields[i] = fields[i].partition("=")[0] + "=" + draw(_VALUES)
        elif kind == "drop":
            del fields[i]
        else:
            fields.insert(i, fields[i])
    return f"{head}:{','.join(fields)}"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(desc=_descriptor(), bound=st.none() | _BOUNDS)
@example(desc="random:pcg64:seed=0,r=2,bound=10000000000000", bound=None)
@example(desc="periodic:q=3,r=2", bound=10**13)
def test_descriptors_raise_only_schema_or_budget_errors(desc, bound):
    """A mutated random: or periodic: descriptor raises SchemaViolationError
    or ResourceBudgetError, or builds a coloring its provenance rebuilds."""
    try:
        c = from_provenance(desc, bound)
    except (SchemaViolationError, ResourceBudgetError):
        return
    assert c.bound <= 10**4
    back = from_provenance(c.provenance)
    assert back.provenance == c.provenance
    assert np.array_equal(back.assignment, c.assignment)


# bytes of a 1000-limit cache: the header (magic, version, id length,
# "sigma", limit, count), its one-chunk table (crc32, popcount) and the
# seal over both
_CACHE_HEAD = 27
_CACHE_SEALED = _CACHE_HEAD + 8


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_load_cache_raises_only_corrupt_cache_error(data, tmp_path_factory):
    """A truncated, flipped, rewritten (raw or resealed) or extended cache
    raises CorruptCacheError, at load or while read whole, or reads as the
    table of the limit its header declares, with the declared count."""
    path = tmp_path_factory.getbasetemp() / "fuzz.sgt"
    save_cache(build_table(1000), str(path))
    raw = bytearray(path.read_bytes())
    kind = data.draw(st.sampled_from(["truncate", "flip", "header", "reseal", "append"]))
    if kind == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1)):]
    elif kind == "flip":
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    elif kind == "append":
        raw += data.draw(st.binary(min_size=1, max_size=16))
    else:
        edits = st.tuples(st.integers(0, _CACHE_SEALED - 1), st.integers(0, 255))
        for i, b in data.draw(st.lists(edits, min_size=1, max_size=4)):
            raw[i] = b
        if kind == "reseal":
            struct.pack_into("<I", raw, _CACHE_SEALED, zlib.crc32(raw[:_CACHE_SEALED]))
    path.write_bytes(bytes(raw))
    try:
        table = load_cache(str(path))
        # chunks are checked when first read, so read them all
        total = table.count_below(table.limit)
        members = table.members(table.size)
    except CorruptCacheError:
        return
    assert table.size == total == members.size == sum(int(w).bit_count() for w in table._words)
    assert struct.unpack_from("<QQ", raw, _CACHE_HEAD - 16) == (table.limit, table.size)
    assert members.tolist() == np.flatnonzero(oracles.two_squares_flags(table.limit)).tolist()
