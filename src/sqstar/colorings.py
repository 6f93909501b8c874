"""Finite colorings of rank intervals [0, bound).

A coloring assigns each rank below its bound one of r colors, numbered
1..r.  Every constructor records a provenance string sufficient to
rebuild the coloring exactly, which is what witness verification leans
on when no coloring file is supplied.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .errors import EnumerationCapError, OutOfDomainError, SchemaViolationError

# avoiding_word gives up after visiting this many search nodes
DEFAULT_ENUMERATION_CAP = 2**24
MAX_COLORS = 2**31 - 1  # colors are stored as int32


class Coloring:
    """An explicit color table over ranks 0..bound-1, colors in 1..r."""

    __slots__ = ("r", "bound", "assignment", "provenance")

    def __init__(self, r: int, bound: int, assignment, provenance: str):
        if not 1 <= r <= MAX_COLORS:
            raise ValueError(f"need 1..{MAX_COLORS} colors, got {r}")
        if bound < 1:
            raise ValueError("bound must be positive")
        arr = np.ascontiguousarray(assignment, dtype=np.int32)
        if arr.shape != (bound,):
            raise ValueError(f"assignment must have shape ({bound},)")
        if arr.size and (arr.min() < 1 or arr.max() > r):
            raise ValueError("colors must lie in 1..r")
        arr.setflags(write=False)
        self.r = int(r)
        self.bound = int(bound)
        self.assignment = arr
        self.provenance = provenance

    def color_of(self, n: int) -> int:
        if n < 0 or n >= self.bound:
            raise OutOfDomainError(f"rank {n} outside coloring domain [0, {self.bound})")
        return int(self.assignment[n])

    def colors_of(self, values: np.ndarray, ok=True) -> np.ndarray:
        """The colors of an array of ranks, 0 where ok fails or past the bound."""
        ok = ok & (values < self.bound)
        return np.where(ok, self.assignment[np.where(ok, values, 0)], 0)

    def __repr__(self):
        return f"Coloring(r={self.r}, bound={self.bound}, {self.provenance!r})"


def random_coloring(seed: int, r: int, bound: int) -> Coloring:
    """Uniform iid coloring from a PCG64 stream; fully determined by seed."""
    if not 1 <= r <= MAX_COLORS:
        raise ValueError(f"need 1..{MAX_COLORS} colors, got {r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    assignment = rng.integers(1, r + 1, size=bound, dtype=np.int32)
    prov = f"random:pcg64:seed={seed},r={r},bound={bound}"
    return Coloring(r, bound, assignment, prov)


def periodic_coloring(q: int, mapping, bound: int) -> Coloring:
    """Coloring of n by mapping[n mod q]; r is the largest color used."""
    if q < 1:
        raise ValueError("period must be positive")
    mapping = [int(c) for c in mapping]
    if len(mapping) != q:
        raise ValueError(f"mapping must list exactly {q} colors")
    r = max(mapping)
    if min(mapping) < 1 or r > MAX_COLORS:
        raise ValueError(f"colors must lie in 1..{MAX_COLORS}")
    prov = f"periodic:q={q},map={';'.join(str(c) for c in mapping)},bound={bound}"
    return _tiled(np.asarray(mapping, dtype=np.int32), r, bound, prov)


def _tiled(pattern: np.ndarray, r: int, bound: int, prov: str) -> Coloring:
    """Coloring of n by pattern[n mod len(pattern)] over [0, bound)."""
    if bound < 1:
        raise ValueError("bound must be positive")
    assignment = np.tile(pattern, -(-bound // pattern.size))[:bound]
    return Coloring(r, bound, assignment, prov)


def from_file(path: str, sha256: str | None = None) -> Coloring:
    """Load and validate a coloring document whose bytes hash to sha256 if
    given; one without provenance records file:ABSPATH#sha256=(their SHA-256)."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    if sha256 not in (None, digest):
        raise SchemaViolationError(f"coloring file {path} has SHA-256 {digest}, not {sha256}")
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SchemaViolationError(f"not valid JSON: {exc}") from exc
    return coloring_from_doc(doc, f"file:{os.path.abspath(path)}#sha256={digest}")


def coloring_from_doc(doc, default_provenance: str = "file:<unnamed>") -> Coloring:
    """Build a Coloring from an already-parsed JSON document."""
    if not isinstance(doc, dict):
        raise SchemaViolationError("coloring document must be a JSON object")
    for key in ("r", "bound", "colors"):
        if key not in doc:
            raise SchemaViolationError(f"coloring document missing key {key!r}")
    r, bound, colors = doc["r"], doc["bound"], doc["colors"]
    if not all(type(x) is int and x >= 1 for x in (r, bound)):  # rejects bool
        raise SchemaViolationError("r and bound must be positive integers")
    if not isinstance(colors, list) or len(colors) != bound:
        raise SchemaViolationError("colors must be a list of length bound")
    if not all(type(c) is int and 1 <= c <= r for c in colors):
        raise SchemaViolationError("every color must be an integer in 1..r")
    prov = doc.get("provenance", default_provenance)
    if not isinstance(prov, str):
        raise SchemaViolationError("provenance must be a string")
    try:
        return Coloring(r, bound, colors, prov)
    except ValueError as exc:  # r past MAX_COLORS
        raise SchemaViolationError(f"bad coloring document: {exc}") from exc


def avoiding_word(size: int, edges, r: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """The least coloring word of vertices 0..size-1, colors 1..r, with no
    monochromatic edge (an iterable of vertices): (word, None), or
    (None, k) if there is none, k the largest index of an edge charged
    with a block.

    Depth-first search colors the vertices in order and checks each edge
    when its largest vertex is colored.  A vertex may use at most one
    color more than any earlier vertex: renaming colors maps avoiding
    words onto avoiding words.  Each color tried on a vertex is a node,
    and EnumerationCapError is raised past cap nodes.  A block is charged
    to the lowest-indexed edge it would make monochromatic, so the charged
    edges alone reject every node the search rejected, and admit no word.
    The search backjumps (Prosser 1993): a vertex with no color left jumps
    to the latest other vertex u of its charged edges and hands u the
    rest.  A fresh color meets no block, so a vertex runs out only once
    all r colors appear before it, and the colors the symmetry rule skips
    at u rename to the fresh one u tried."""
    if r < 1:
        raise ValueError("need at least one color")
    # watch[v]: (mask, index) of each edge whose largest vertex is v, mask the
    # bitmask of its other vertices; it is monochromatic once they share v's color
    watch = [[] for _ in range(size)]
    for i, edge in enumerate(edges):
        vs = set(edge)
        if not vs or min(vs) < 0 or max(vs) >= size:
            raise ValueError(f"edge {tuple(edge)} is not a nonempty set of 0..{size - 1}")
        top = max(vs)
        watch[top].append((sum(1 << u for u in vs if u != top), i))
    units = [i for masks in watch for e, i in masks if not e]
    if units:  # a single vertex (mask 0) is monochromatic under every word
        return None, min(units)
    r = min(r, size)  # vertex v uses at most color v + 1
    word = [0] * size
    conflict = [0] * size
    masks = [0] * (r + 1)  # masks[c]: vertices colored c (masks[0] is unused)
    top_color = [0] * (size + 1)  # top_color[v]: largest color on 0..v-1
    nodes, v, k = 0, 0, -1
    while 0 <= v < size:
        c = word[v]
        masks[c] &= ~(1 << v)
        last = min(r, top_color[v] + 1)
        while c < last:
            c += 1
            nodes += 1
            if nodes > cap:
                raise EnumerationCapError(f"coloring search passed the cap of {cap} nodes")
            for e, i in watch[v]:
                if e & masks[c] == e:
                    k = max(k, i)
                    conflict[v] |= e
                    break
            else:
                break
        else:  # no color left for v: jump to u, uncoloring u+1..v
            u = conflict[v].bit_length() - 1
            if u < 0:  # no earlier vertex is to blame: no word avoids
                break
            conflict[u] |= conflict[v] ^ (1 << u)
            for w in range(u + 1, v + 1):
                masks[word[w]] &= ~(1 << w)
                word[w] = conflict[w] = 0
            v = u
            continue
        word[v] = c
        masks[c] |= 1 << v
        top_color[v + 1] = max(top_color[v], c)
        v += 1
    return (tuple(word), None) if v == size else (None, k)


def from_provenance(prov: str, bound: int | None = None) -> Coloring:
    """Rebuild a coloring from a provenance string: the descriptor grammar.

        random[:pcg64]:seed=S,r=R[,bound=B]
        periodic:q=Q,r=R[,bound=B]              n -> (n mod Q) mod R + 1
        periodic:q=Q,map=C1;...;CQ[,bound=B]    n -> C_{(n mod Q) + 1}
        file:PATH[#sha256=HEX]                  the document at PATH, if its bytes hash to HEX

    This covers every string random_coloring, periodic_coloring and
    from_file (by absolute path and digest, split off from the right) record.
    `bound` fills in when the string carries none; every malformed one, or
    a file that no longer hashes to its digest, raises SchemaViolationError.
    """
    kind, _, rest = prov.partition(":")
    if kind == "file":
        path, sep, digest = rest.rpartition("#sha256=")
        return from_file(path, digest) if sep else from_file(rest)
    if kind == "random" and rest.startswith("pcg64:"):
        rest = rest[len("pcg64:"):]
    keys = {"random": ("seed", "r", "bound"), "periodic": ("q", "r", "map", "bound")}
    if kind not in keys:
        raise SchemaViolationError(f"cannot rebuild a coloring from {prov!r}")
    fields = {}
    for item in rest.split(","):
        key, eq, val = item.partition("=")
        if not eq or key not in keys[kind] or key in fields:
            raise SchemaViolationError(f"bad field {item!r} in coloring {prov!r}")
        fields[key] = val
    try:
        b = int(fields["bound"]) if "bound" in fields else bound
        if b is None:
            raise SchemaViolationError(f"no bound recorded in {prov!r}")
        if kind == "random":
            return random_coloring(int(fields["seed"]), int(fields["r"]), b)
        if ("map" in fields) == ("r" in fields):
            raise ValueError("periodic needs exactly one of r= and map=")
        q = int(fields["q"])
        if "map" in fields:
            return periodic_coloring(q, [int(c) for c in fields["map"].split(";")], b)
        # n -> (n mod q) mod r + 1 uses colors 1..min(q, r); only the first
        # min(q, b) are built, and i mod r = i mod min(r, b) for i < b
        r = int(fields["r"])
        if q < 1:
            raise ValueError("period must be positive")
        if r < 1:
            raise ValueError("need at least one color")
        pattern = np.arange(min(q, b)) % min(r, b) + 1
        return _tiled(pattern, min(q, r), b, f"periodic:q={q},r={r},bound={b}")
    except KeyError as exc:
        raise SchemaViolationError(f"coloring {prov!r} lacks {exc.args[0]}=") from exc
    except ValueError as exc:
        raise SchemaViolationError(f"bad coloring {prov!r}: {exc}") from exc
