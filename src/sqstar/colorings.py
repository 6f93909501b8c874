"""Finite colorings of rank intervals [0, bound).

A coloring assigns each rank below its bound one of r colors, numbered
1..r.  Every constructor records a provenance string sufficient to
rebuild the coloring exactly, which is what witness verification leans
on when no coloring file is supplied.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import EnumerationCapError, OutOfDomainError, SchemaViolationError

# enumerate_all refuses to walk more than this many colorings
DEFAULT_ENUMERATION_CAP = 2**24


class Coloring:
    """An explicit color table over ranks 0..bound-1, colors in 1..r."""

    __slots__ = ("r", "bound", "assignment", "provenance")

    def __init__(self, r: int, bound: int, assignment, provenance: str):
        if r < 1:
            raise ValueError("need at least one color")
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

    def __repr__(self):
        return f"Coloring(r={self.r}, bound={self.bound}, {self.provenance!r})"


def random_coloring(seed: int, r: int, bound: int) -> Coloring:
    """Uniform iid coloring from a PCG64 stream; fully determined by seed."""
    if r < 1:
        raise ValueError("need at least one color")
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
    if min(mapping) < 1:
        raise ValueError("colors must be positive")
    r = max(mapping)
    pattern = np.asarray(mapping, dtype=np.int32)
    reps = -(-bound // q)
    assignment = np.tile(pattern, reps)[:bound]
    prov = f"periodic:q={q},map={';'.join(str(c) for c in mapping)},bound={bound}"
    return Coloring(r, bound, assignment, prov)


def from_file(path: str) -> Coloring:
    """Load a coloring from its JSON document, validating the schema."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolationError(f"not valid JSON: {exc}") from exc
    return coloring_from_doc(doc, default_provenance=f"file:{path}")


def coloring_from_doc(doc, default_provenance: str = "file:<unnamed>") -> Coloring:
    """Build a Coloring from an already-parsed JSON document."""
    if not isinstance(doc, dict):
        raise SchemaViolationError("coloring document must be a JSON object")
    for key in ("r", "bound", "colors"):
        if key not in doc:
            raise SchemaViolationError(f"coloring document missing key {key!r}")
    r, bound, colors = doc["r"], doc["bound"], doc["colors"]
    if not isinstance(r, int) or not isinstance(bound, int):
        raise SchemaViolationError("r and bound must be integers")
    if not isinstance(colors, list) or len(colors) != bound:
        raise SchemaViolationError("colors must be a list of length bound")
    if not all(isinstance(c, int) and 1 <= c <= r for c in colors):
        raise SchemaViolationError("every color must be an integer in 1..r")
    prov = doc.get("provenance", default_provenance)
    if not isinstance(prov, str):
        raise SchemaViolationError("provenance must be a string")
    return Coloring(r, bound, colors, prov)


def coloring_to_doc(c: Coloring) -> dict:
    return {
        "r": c.r,
        "bound": c.bound,
        "colors": [int(x) for x in c.assignment],
        "provenance": c.provenance,
    }


def to_file(c: Coloring, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(coloring_to_doc(c), fh, sort_keys=True)
        fh.write("\n")


def enumerate_all(r: int, bound: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every coloring of [0, bound) with colors 1..r.

    Raises EnumerationCapError up front when r**bound exceeds the cap.
    Order is lexicographic in the color tuple, color 1 first.
    """
    total = r**bound
    if total > cap:
        raise EnumerationCapError(
            f"{r}**{bound} = {total} colorings exceed the cap of {cap}"
        )
    for i, tup in enumerate(itertools.product(range(1, r + 1), repeat=bound)):
        prov = f"enumerated:r={r},bound={bound},index={i}"
        yield Coloring(r, bound, tup, prov)


def from_provenance(prov: str, bound: int | None = None) -> Coloring:
    """Rebuild a coloring from a provenance string: the descriptor grammar.

        random[:pcg64]:seed=S,r=R[,bound=B]
        periodic:q=Q,r=R[,bound=B]              n -> (n mod Q) mod R + 1
        periodic:q=Q,map=C1;...;CQ[,bound=B]    n -> C_{(n mod Q) + 1}

    This covers every string random_coloring and periodic_coloring record.
    `bound` fills in when the string carries none.  File-backed or
    enumerated colorings cannot be rebuilt from provenance alone; they and
    every malformed string raise SchemaViolationError.
    """
    kind, _, rest = prov.partition(":")
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
            mapping = [int(c) for c in fields["map"].split(";")]
        else:
            r = int(fields["r"])
            if r < 1:
                raise ValueError("need at least one color")
            mapping = [(i % r) + 1 for i in range(q)]
        return periodic_coloring(q, mapping, b)
    except KeyError as exc:
        raise SchemaViolationError(f"coloring {prov!r} lacks {exc.args[0]}=") from exc
    except ValueError as exc:
        raise SchemaViolationError(f"bad coloring {prov!r}: {exc}") from exc
