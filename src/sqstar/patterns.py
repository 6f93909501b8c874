"""The six monochromatic configuration families over the induced product.

Every family reduces to monomial evaluations: a configuration is a set of
ranks, each the count of ground-set members below one integer product.
Families:

  fpf      finite products of a fixed rank sequence (all nonempty subsets)
  brauer   {x, z} plus the ranks of s_x^j * s_z for j = 1..k
  deuber   (m, p)-set: x_0 plus ranks of s_{x_0}^{n_0}..s_{x_{j-1}}^{n_{j-1}} * s_{x_j}
  mt       block products of a sequence combined by a closed-form map
  geo      ranks of s_b * ((prod_{t in gamma} s_t) * s_{a+i*d})^j, 0 <= i,j <= k
  pvw      ranks of s_b * s_{a_{i1}}^c * s_{a_{i2}}^{c^2} * ... * s_{a_{id}}^{c^d}

Each family is declared once, as its spec class (see `_Family`); the
configuration stream, the witness documents, the search's candidate
order and the command line all read that declaration.

Generator indices are everywhere >= 1: rank 0 is absorbing and would
collapse any configuration to {0}.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .errors import MalformedWitnessError, OutOfRangeError
from .ground import GroundTable
from .semigroup import eval_monomial


# ---------------------------------------------------------------------------
# closed-form combination maps for the mt family; each applies itself to a
# tuple of ranks and prints as the text phi_from_str reads back

@dataclass(frozen=True)
class PhiProjection:
    i: int  # 1-based coordinate

    def __post_init__(self):
        if self.i < 1:
            raise ValueError("projection coordinate must be >= 1")

    def __call__(self, values: Sequence[int], table: GroundTable) -> int:
        if self.i > len(values):
            raise ValueError(f"projection {self.i} exceeds arity {len(values)}")
        return int(values[self.i - 1])

    def __str__(self):
        return f"proj:{self.i}"


@dataclass(frozen=True)
class PhiSum:
    def __call__(self, values: Sequence[int], table: GroundTable) -> int:
        return int(sum(values))

    def __str__(self):
        return "sum"


@dataclass(frozen=True)
class PhiProduct:
    def __call__(self, values: Sequence[int], table: GroundTable) -> int:
        return int(math.prod(values))

    def __str__(self):
        return "product"


@dataclass(frozen=True)
class PhiLinear:
    coeffs: Tuple[int, ...]
    constant: int = 0

    def __post_init__(self):
        if any(c < 0 for c in self.coeffs) or self.constant < 0:
            raise ValueError("linear coefficients must be nonnegative")

    def __call__(self, values: Sequence[int], table: GroundTable) -> int:
        if len(self.coeffs) != len(values):
            raise ValueError(
                f"linear map of arity {len(self.coeffs)} applied to {len(values)} values"
            )
        return int(sum(c * v for c, v in zip(self.coeffs, values)) + self.constant)

    def __str__(self):
        return f"linear:{';'.join(str(c) for c in self.coeffs)}:{self.constant}"


@dataclass(frozen=True)
class PhiStarFold:
    def __call__(self, values: Sequence[int], table: GroundTable) -> int:
        return eval_monomial([(v, 1) for v in values], table)

    def __str__(self):
        return "starfold"


_PHIS = (PhiProjection, PhiSum, PhiProduct, PhiLinear, PhiStarFold)


def phi_from_str(text: str):
    parts = text.split(":")
    head = parts[0]
    try:
        if head in ("proj", "projection") and len(parts) == 2:
            return PhiProjection(int(parts[1]))
        if head == "sum" and len(parts) == 1:
            return PhiSum()
        if head == "product" and len(parts) == 1:
            return PhiProduct()
        if head == "starfold" and len(parts) == 1:
            return PhiStarFold()
        if head == "linear" and len(parts) == 3:
            coeffs = tuple(int(c) for c in parts[1].split(";")) if parts[1] else ()
            return PhiLinear(coeffs, int(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad combination map {text!r}: {exc}") from exc
    raise ValueError(f"unknown combination map {text!r}")


# ---------------------------------------------------------------------------
# generator kinds: how one generator value is checked, drawn from candidate
# tuple positions, and read from a --gen token

def _want_int(generators: dict, key: str, n=None) -> int:
    if key not in generators:
        raise ValueError(f"generators missing {key!r}")
    v = generators[key]
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ValueError(f"generator {key!r} must be an integer >= 1, got {v!r}")
    return v


def _want_indices(generators: dict, key: str, expect: Optional[int]) -> list:
    if key not in generators:
        raise ValueError(f"generators missing {key!r}")
    xs = generators[key]
    if not isinstance(xs, (list, tuple)) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in xs
    ):
        raise ValueError(f"generator {key!r} must be a list of integers")
    xs = list(xs)
    if expect is not None and len(xs) != expect:
        raise ValueError(f"generator {key!r} must have {expect} entries, got {len(xs)}")
    if not xs:
        raise ValueError(f"generator {key!r} must be nonempty")
    if min(xs) < 1:
        raise ValueError(f"generator {key!r} entries must be >= 1, got {min(xs)}")
    return xs


def _want_monomial(generators: dict, key: str, n=None) -> list:
    if key not in generators:
        raise ValueError(f"generators missing {key!r}")
    mono = generators[key]
    if not isinstance(mono, (list, tuple)):
        raise ValueError(f"generator {key!r} must be a list of (rank, exponent) pairs")
    out = []
    for pair in mono:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"generator {key!r} entries must be (rank, exponent) pairs")
        t, e = pair
        ok = all(isinstance(v, int) and not isinstance(v, bool) for v in (t, e))
        if not ok or t < 1 or e < 0:
            raise ValueError(f"bad monomial factor ({t}, {e}) in generator {key!r}")
        out.append((t, e))
    return out


def _parse_ints(token: str) -> list:
    return [int(t) for t in token.split(",")]


def _parse_monomial(token: str) -> list:
    """Parse "2:1,5:2" into [(2, 1), (5, 2)]; "-" is the empty monomial."""
    if token in ("-", ""):
        return []
    out = []
    for item in token.split(","):
        t, sep, e = item.partition(":")
        out.append((int(t), int(e) if sep else 1))
    return out


class Kind(NamedTuple):
    """One kind of generator value in a family's layout.

    check(generators, key, n) returns the checked value or raises
    ValueError; take(tup, i, n) builds the value from candidate-tuple
    positions i..i+n-1; parse reads it from one --gen token.  Positions
    run over generator indices, or over 1..generator_max when aux is set
    (progression parameters and exponents are not generator indices).
    """

    check: Callable
    take: Callable
    parse: Callable
    aux: bool = False


# named functions, not lambdas, so that specs holding a layout pickle
def _take_one(tup, i, n):
    return tup[i]


def _take_list(tup, i, n):
    return list(tup[i:i + n])


def _take_monomial(tup, i, n):
    # candidates use a single-index monomial s_t
    return [(tup[i], 1)]


def _want_any_indices(generators, key, n):
    # any nonempty length is valid; n only sizes the candidates
    return _want_indices(generators, key, None)


RANK = Kind(_want_int, _take_one, int)
AUX = RANK._replace(aux=True)
SEQUENCE = Kind(_want_indices, _take_list, _parse_ints)
INDICES = Kind(_want_any_indices, _take_list, _parse_ints)
MONOMIAL = Kind(_want_monomial, _take_monomial, _parse_monomial)


# ---------------------------------------------------------------------------
# pattern specifications

class _Family:
    """The one declaration of a pattern family, shared by its spec class.

    A spec is a frozen dataclass whose fields are the family's parameters.
    Its class states the rest:

      family   the name used in documents and on the command line
      layout   the generator schema, as (key, kind, n) entries in candidate
               tuple order; n is the number of tuple positions the key fills
      _values  the configuration stream, in canonical order, over checked
               generators
    """

    family: str
    layout: tuple

    def _checked(self, generators: dict) -> dict:
        return {key: kind.check(generators, key, n) for key, kind, n in self.layout}

    def _values(self, g: dict, table: GroundTable) -> Iterator[int]:
        raise NotImplementedError


@dataclass(frozen=True)
class FpF(_Family):
    k: int
    family = "fpf"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("sequence length must be >= 1")

    @cached_property
    def layout(self):
        return (("xs", SEQUENCE, self.k),)

    def _values(self, g, table):
        # every member is looked up before the first value is yielded
        svals = [table.element(x) for x in g["xs"]]
        prods = [0] * (1 << self.k)
        prods[0] = 1
        for mask in range(1, 1 << self.k):
            low = (mask & -mask).bit_length() - 1
            p = prods[mask & (mask - 1)] * svals[low]
            if p >= table.limit:
                positions = [i + 1 for i in range(self.k) if mask >> i & 1]
                raise OutOfRangeError(
                    f"subset {positions} of ranks {g['xs']} has product {p} "
                    f"beyond table limit {table.limit}"
                )
            prods[mask] = p
            yield table.count_below(p)


@dataclass(frozen=True)
class Brauer(_Family):
    k: int
    family = "brauer"
    layout = (("x", RANK, 1), ("z", RANK, 1))

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("progression length must be >= 1")

    def _values(self, g, table):
        x, z = g["x"], g["z"]
        yield x
        yield z
        for j in range(1, self.k + 1):
            yield eval_monomial([(x, j), (z, 1)], table)


@dataclass(frozen=True)
class Deuber(_Family):
    m: int
    p: int
    family = "deuber"

    def __post_init__(self):
        if self.m < 1 or self.p < 1:
            raise ValueError("m and p must be >= 1")

    @cached_property
    def layout(self):
        return (("xs", SEQUENCE, self.m + 1),)

    def _values(self, g, table):
        xs = g["xs"]
        yield xs[0]
        for j in range(1, self.m + 1):
            for expo in itertools.product(range(self.p + 1), repeat=j):
                mono = [(xs[i], expo[i]) for i in range(j)] + [(xs[j], 1)]
                yield eval_monomial(mono, table)


@dataclass(frozen=True)
class MillikenTaylor(_Family):
    m: int
    phi: object
    family = "mt"

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("block count must be >= 1")
        if not isinstance(self.phi, _PHIS):
            raise TypeError(f"not a combination map: {self.phi!r}")
        # the map receives exactly m block values
        if isinstance(self.phi, PhiProjection) and self.phi.i > self.m:
            raise ValueError(f"projection {self.phi.i} exceeds block count {self.m}")
        if isinstance(self.phi, PhiLinear) and len(self.phi.coeffs) != self.m:
            raise ValueError(
                f"linear map of arity {len(self.phi.coeffs)} needs {self.m} coefficients"
            )

    @cached_property
    def layout(self):
        # shortest sequence allowing a non-singleton block: m + 1 entries
        return (("xs", INDICES, self.m + 1),)

    def _values(self, g, table):
        xs = g["xs"]
        if len(xs) < self.m:
            raise ValueError(f"no {self.m}-block families fit into {len(xs)} positions")
        for fs in block_tuples(len(xs), self.m):
            values = [eval_monomial([(xs[t - 1], 1) for t in f], table) for f in fs]
            yield self.phi(values, table)


@dataclass(frozen=True)
class GeoArithmetic(_Family):
    k: int
    family = "geo"
    layout = (("b", MONOMIAL, 1), ("gamma", INDICES, 1), ("a", AUX, 1), ("d", AUX, 1))

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("grid size must be >= 1")

    def _values(self, g, table):
        b, a, d = g["b"], g["a"], g["d"]
        gamma = sorted(set(g["gamma"]))
        for i in range(self.k + 1):
            for j in range(self.k + 1):
                yield eval_monomial(b + [(t, j) for t in gamma] + [(a + i * d, j)], table)


@dataclass(frozen=True)
class PolyVdW(_Family):
    d: int
    sets: Tuple[Tuple[int, ...], ...]
    family = "pvw"
    layout = (("b", MONOMIAL, 1), ("c", AUX, 1))

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("degree must be >= 1")
        if not self.sets:
            raise ValueError("need at least one index set")
        sets = tuple(tuple(int(a) for a in f) for f in self.sets)
        object.__setattr__(self, "sets", sets)
        for f in sets:
            if len(f) != self.d:
                raise ValueError(f"index set {f} does not have {self.d} members")
            if len(set(f)) != len(f):
                raise ValueError(f"index set {f} has repeated members")
            if min(f) < 1:
                raise ValueError("index sets must contain ranks >= 1")

    def _values(self, g, table):
        b, c = g["b"], g["c"]
        for f in self.sets:
            yield eval_monomial(b + [(a, c ** (j + 1)) for j, a in enumerate(f)], table)


FAMILIES = {
    cls.family: cls
    for cls in (FpF, Brauer, Deuber, MillikenTaylor, GeoArithmetic, PolyVdW)
}
FAMILY_NAMES = {cls: name for name, cls in FAMILIES.items()}


def family_name(spec) -> str:
    try:
        return FAMILY_NAMES[type(spec)]
    except KeyError:
        raise TypeError(f"not a pattern spec: {spec!r}") from None


# ---------------------------------------------------------------------------
# generation

def block_tuples(length: int, m: int) -> Iterator[tuple]:
    """All tuples (F_1 < ... < F_m) of nonempty index blocks inside {1..length}.

    Blocks are sets of 1-based positions with max(F_i) < min(F_{i+1}).
    Enumeration is deterministic: each block by size then lexicographically,
    earlier blocks varying slowest.
    """

    def rec(start, m_left):
        if m_left == 0:
            yield ()
            return
        room = length - start + 1
        for size in range(1, room + 1):
            for comb in itertools.combinations(range(start, length + 1), size):
                for rest in rec(comb[-1] + 1, m_left - 1):
                    yield (comb,) + rest

    return rec(1, m)


def config_values(spec, generators: dict, table: GroundTable) -> Iterator[int]:
    """Stream the configuration values of a family in its canonical order.

    generate_configuration materializes this stream.  Duplicate values may
    appear in the stream; configurations are their dedup.  Generators are
    checked against the family's layout (ValueError) when the first value
    is requested.
    """
    yield from spec._values(spec._checked(generators), table)


def generate_configuration(spec, generators: dict, table: GroundTable) -> tuple:
    """Full configuration for a generator assignment, sorted ascending."""
    return tuple(sorted(set(config_values(spec, generators, table))))


# ---------------------------------------------------------------------------
# witnesses and their documents

@dataclass(frozen=True)
class Witness:
    spec: object
    generators: dict
    configuration: Tuple[int, ...]
    color: int
    coloring_provenance: str
    table_limit: int


def _doc_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _doc_phi(v):
    if not isinstance(v, str):
        raise ValueError(f"expected a combination map string, got {v!r}")
    return phi_from_str(v)


def _doc_sets(v) -> tuple:
    if not isinstance(v, list) or not all(isinstance(f, list) for f in v):
        raise ValueError(f"expected a list of index lists, got {v!r}")
    return tuple(tuple(_doc_int(a) for a in f) for f in v)


# every parameter name means the same in each family that has it
_PARAM_CODECS = {"k": _doc_int, "m": _doc_int, "p": _doc_int, "d": _doc_int,
                 "phi": _doc_phi, "sets": _doc_sets}


def _plain(v):
    """A spec parameter or generator value as JSON: ints, lists, phi text."""
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return int(v) if isinstance(v, int) else str(v)


def spec_to_doc(spec) -> dict:
    name = family_name(spec)
    params = {f.name: _plain(getattr(spec, f.name)) for f in dataclasses.fields(spec)}
    return {"family": name, "params": params}


def spec_from_doc(doc: dict):
    try:
        name = doc["family"]
        params = doc["params"]
        if name not in FAMILIES:
            raise MalformedWitnessError(f"unknown family {name!r}")
        cls = FAMILIES[name]
        return cls(**{f.name: _PARAM_CODECS[f.name](params[f.name])
                      for f in dataclasses.fields(cls)})
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedWitnessError(f"bad pattern spec document: {exc}") from exc


def witness_to_doc(w: Witness) -> dict:
    return {
        "spec": spec_to_doc(w.spec),
        "generators": generators_to_doc(w.spec, w.generators),
        "configuration": [int(v) for v in w.configuration],
        "color": int(w.color),
        "coloring-provenance": w.coloring_provenance,
        "table-limit": int(w.table_limit),
    }


def witness_from_doc(doc) -> Witness:
    if not isinstance(doc, dict):
        raise MalformedWitnessError("witness document must be a JSON object")
    for key in (
        "spec",
        "generators",
        "configuration",
        "color",
        "coloring-provenance",
        "table-limit",
    ):
        if key not in doc:
            raise MalformedWitnessError(f"witness document missing key {key!r}")
    spec = spec_from_doc(doc["spec"])
    gens = generators_from_doc(spec, doc["generators"])
    config = doc["configuration"]
    if not isinstance(config, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in config
    ):
        raise MalformedWitnessError("configuration must be a list of ranks")
    if sorted(config) != config or len(set(config)) != len(config):
        raise MalformedWitnessError("configuration must be sorted and duplicate-free")
    color = doc["color"]
    if not isinstance(color, int) or isinstance(color, bool) or color < 1:
        raise MalformedWitnessError("color must be a positive integer")
    prov = doc["coloring-provenance"]
    if not isinstance(prov, str):
        raise MalformedWitnessError("coloring-provenance must be a string")
    limit = doc["table-limit"]
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 2:
        raise MalformedWitnessError("table-limit must be an integer >= 2")
    return Witness(spec, gens, tuple(config), color, prov, limit)


def generators_to_doc(spec, gens: dict) -> dict:
    return {key: _plain(gens[key]) for key, _, _ in spec.layout}


def generators_from_doc(spec, doc) -> dict:
    if not isinstance(doc, dict):
        raise MalformedWitnessError("generators must be a JSON object")
    try:
        return spec._checked(doc)
    except ValueError as exc:
        raise MalformedWitnessError(str(exc)) from exc


def save_witness(w: Witness, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(witness_to_doc(w), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_witness(path: str) -> Witness:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise MalformedWitnessError(f"not valid JSON: {exc}") from exc
    return witness_from_doc(doc)
