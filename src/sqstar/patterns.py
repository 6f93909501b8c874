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
order and the command line all read that declaration, and its parameters
through PARAMS.

Generator indices are everywhere >= 1: rank 0 is absorbing and would
collapse any configuration to {0}.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

from .errors import MalformedWitnessError, OutOfRangeError
from .ground import GroundTable
from .semigroup import _Exact, _product


# ---------------------------------------------------------------------------
# closed-form combination maps for the mt family: MillikenTaylor checks a
# map's arity once, and its _values applies the map (_apply) to m ranks in
# a family arithmetic (see _Family); each prints as phi_from_str reads back

@dataclass(frozen=True)
class PhiProjection:
    i: int  # 1-based coordinate

    def __post_init__(self):
        if self.i < 1:
            raise ValueError("projection coordinate must be >= 1")

    def _apply(self, values, ar):
        return values[self.i - 1]

    def __str__(self):
        return f"proj:{self.i}"


@dataclass(frozen=True)
class PhiSum:
    def _apply(self, values, ar):
        return reduce(ar.plus, values)

    def __str__(self):
        return "sum"


@dataclass(frozen=True)
class PhiProduct:
    def _apply(self, values, ar):
        return reduce(ar.times, values)

    def __str__(self):
        return "product"


@dataclass(frozen=True)
class PhiLinear:
    coeffs: Tuple[int, ...]
    constant: int = 0

    def __post_init__(self):
        if any(c < 0 for c in self.coeffs) or self.constant < 0:
            raise ValueError("linear coefficients must be nonnegative")

    def _apply(self, values, ar):
        terms = (ar.times(c, v) for c, v in zip(self.coeffs, values))
        return reduce(ar.plus, terms, self.constant)

    def __str__(self):
        return f"linear:{';'.join(str(c) for c in self.coeffs)}:{self.constant}"


@dataclass(frozen=True)
class PhiStarFold:
    def _apply(self, values, ar):
        return ar.rank(_product(ar, [(v, 1) for v in values]))

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
    v = generators[key]
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ValueError(f"generator {key!r} must be an integer >= 1, got {v!r}")
    return v


def _want_indices(generators: dict, key: str, expect: Optional[int]) -> list:
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


def _parse_sets(token: str) -> tuple:
    return tuple(
        tuple(int(a) for a in group.split(",")) for group in token.split(";") if group
    )


class Kind(NamedTuple):
    """One kind of generator value in a family's layout.

    check(generators, key, n) returns generators[key], checked, or raises
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
               generators and a family arithmetic ar

    _values is each family's one value definition.  It computes in ar
    only: ar.member(x) is the member s_x of rank x, ar.mul and ar.pow
    form member products and powers (exponents >= 0), ar.rank(p) counts
    the members below p, and ar.plus and ar.times combine values; index
    arithmetic such as geo's a + i*d is plain + and *.  semigroup._Exact
    evaluates one candidate whose generators are Python ints: its values
    are exact, and a member past the table or a product at or above the
    limit raises OutOfRangeError, which ends the stream there.
    semigroup._Saturating evaluates a block of candidates whose generator
    positions are int64 columns (search.find_witness): each yield is a
    column, and after it ar.ok marks the rows whose exact stream would
    have reached it.  So a stream looks up each member and forms each
    product where the value that needs it is computed, not earlier.

    _values must be monotone in every candidate-tuple position: when a
    tuple t is at most t' componentwise, each stream position's value at t
    is at most its value at t', and if t raises OutOfRangeError before some
    position, t' raises at or before it.  search.admitted_configs prunes
    its walk by this rule.
    """

    family: str
    layout: tuple

    def _checked(self, generators: dict) -> dict:
        missing = [key for key, _, _ in self.layout if key not in generators]
        if missing:
            raise ValueError(f"generators missing {missing[0]!r}")
        return {key: kind.check(generators, key, n) for key, kind, n in self.layout}


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

    def _values(self, g, ar):
        # every member is looked up before the first value is yielded
        svals = [ar.member(x) for x in g["xs"]]
        # products in mask order, appended as they are formed, so a long
        # sequence overflows the table before it could exhaust memory
        prods = [1]
        for mask in range(1, 1 << self.k):
            low = (mask & -mask).bit_length() - 1
            try:
                prods.append(ar.mul(prods[mask & (mask - 1)], svals[low]))
            except OutOfRangeError:  # only _Exact raises: name the subset
                positions = [i + 1 for i in range(self.k) if mask >> i & 1]
                raise OutOfRangeError(
                    f"subset {positions} of ranks {g['xs']} has product "
                    f"{prods[mask & (mask - 1)] * svals[low]} beyond table limit {ar.table.limit}"
                ) from None
            yield ar.rank(prods[-1])


@dataclass(frozen=True)
class Brauer(_Family):
    k: int
    family = "brauer"
    layout = (("x", RANK, 1), ("z", RANK, 1))

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("progression length must be >= 1")

    def _values(self, g, ar):
        x, z = g["x"], g["z"]
        yield x
        yield z
        p, s = ar.member(z), ar.member(x)
        for _ in range(self.k):  # s_x^j * s_z
            p = ar.mul(p, s)
            yield ar.rank(p)


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

    def _values(self, g, ar):
        xs = g["xs"]
        yield xs[0]
        for j in range(1, self.m + 1):
            for expo in itertools.product(range(self.p + 1), repeat=j):
                yield ar.rank(_product(ar, [*zip(xs, expo), (xs[j], 1)]))


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
        # the map's one arity check: _values hands it exactly m block values
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

    def _values(self, g, ar):
        xs = g["xs"]
        if len(xs) < self.m:
            raise ValueError(f"no {self.m}-block families fit into {len(xs)} positions")
        for fs in block_tuples(len(xs), self.m):
            values = [ar.rank(_product(ar, [(xs[t - 1], 1) for t in f])) for f in fs]
            yield self.phi._apply(values, ar)


@dataclass(frozen=True)
class GeoArithmetic(_Family):
    k: int
    family = "geo"
    layout = (("b", MONOMIAL, 1), ("gamma", INDICES, 1), ("a", AUX, 1), ("d", AUX, 1))

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("grid size must be >= 1")

    def _values(self, g, ar):
        a, d, gamma = g["a"], g["d"], g["gamma"]
        # repeated gamma ranks count once; a search block's gamma is one
        # column, so this compares no columns
        gamma = [t for n, t in enumerate(gamma) if t not in gamma[:n]]
        base = _product(ar, g["b"])
        low = ar.rank(base)
        for i in range(self.k + 1):
            yield low  # j = 0
            p, u = base, _product(ar, [(t, 1) for t in gamma + [a + i * d]])
            for _ in range(self.k):  # s_b * (prod_gamma s_t * s_{a+i*d})^j
                p = ar.mul(p, u)
                yield ar.rank(p)


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

    def _values(self, g, ar):
        c = g["c"]
        base = _product(ar, g["b"])
        for f in self.sets:
            p = base
            for j, a in enumerate(f):  # s_b * s_{a_1}^c * s_{a_2}^(c^2) * ...
                e = ar.times(e, c) if j else c
                p = ar.mul(p, ar.pow(ar.member(a), e))
            yield ar.rank(p)


FAMILIES = {
    cls.family: cls
    for cls in (FpF, Brauer, Deuber, MillikenTaylor, GeoArithmetic, PolyVdW)
}
FAMILY_NAMES = {cls: name for name, cls in FAMILIES.items()}


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
    yield from spec._values(spec._checked(generators), _Exact(table))


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


# each spec parameter, the same in every family that has it: (its witness
# document codec, its command-line parser); the CLI offers them in this order
PARAMS = {"k": (_doc_int, int), "m": (_doc_int, int), "p": (_doc_int, int),
          "phi": (_doc_phi, phi_from_str), "d": (_doc_int, int), "sets": (_doc_sets, _parse_sets)}


def _plain(v):
    """A spec parameter or generator value as JSON: ints, lists, phi text."""
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return int(v) if isinstance(v, int) else str(v)


def spec_to_doc(spec) -> dict:
    params = {f.name: _plain(getattr(spec, f.name)) for f in dataclasses.fields(spec)}
    return {"family": spec.family, "params": params}


def spec_from_doc(doc: dict):
    try:
        name = doc["family"]
        params = doc["params"]
        if name not in FAMILIES:
            raise MalformedWitnessError(f"unknown family {name!r}")
        cls = FAMILIES[name]
        return cls(**{f.name: PARAMS[f.name][0](params[f.name])
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
