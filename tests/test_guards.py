"""Argument guards that no other test reaches: each one can fail."""

import re

import numpy as np
import pytest

from sqstar import (
    Brauer,
    Coloring,
    FpF,
    GeoArithmetic,
    GroundTable,
    MillikenTaylor,
    PhiLinear,
    PhiProjection,
    PhiSum,
    PolyVdW,
    ResourceBudgetError,
    SearchBounds,
    build_table,
    find_witness,
    from_provenance,
    periodic_coloring,
    random_coloring,
    verify_laws,
)
from sqstar import ground


@pytest.mark.parametrize("call, message", [
    (lambda t: Coloring(2, 0, [], "x"), "bound must be positive"),
    (lambda t: periodic_coloring(0, [], 5), "period must be positive"),
    (lambda t: periodic_coloring(2, [1, 2], -3), "bound must be positive"),
    (lambda t: GroundTable(100, np.zeros(3, dtype=np.uint64), 0),
     "a table with limit 100 needs 2 words"),
    # refused before anything is allocated, a 16 GiB member buffer included
    (lambda t: GroundTable(64, np.zeros(2, "<u8"), 2**32),
     "4294967296 members overflow the uint32 rank directory"),
    (lambda t: t.contains(-1), "membership query requires a nonnegative integer"),
    (lambda t: PhiProjection(0), "projection coordinate must be >= 1"),
    (lambda t: PhiLinear((1, -1), 0), "linear coefficients must be nonnegative"),
    (lambda t: Brauer(0), "progression length must be >= 1"),
    (lambda t: MillikenTaylor(0, PhiSum()), "block count must be >= 1"),
    (lambda t: GeoArithmetic(0), "grid size must be >= 1"),
    (lambda t: PolyVdW(0, ((1,),)), "degree must be >= 1"),
    (lambda t: PolyVdW(2, ((2, 2),)), "index set (2, 2) has repeated members"),
    (lambda t: verify_laws(-1, t), "range_max must be nonnegative"),
], ids=["coloring-bound", "period", "tiled-bound", "table-words", "table-members", "contains", "projection",
        "linear", "brauer", "mt", "geo", "pvw-degree", "pvw-repeat", "verify-laws"])
def test_argument_guard_fails(table_100k, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(table_100k)


def _refusal(monkeypatch, budget, call):
    """(need, message) of the budget refusal call meets at this budget, or None."""
    monkeypatch.setattr(ground, "DEFAULT_MAX_BYTES", budget)
    try:
        call()
    except ResourceBudgetError as err:
        return int(re.search(r"needs ~(\d+) bytes", str(err)).group(1)), str(err)
    return None


@pytest.mark.parametrize("call, skip, message", [
    (lambda t: build_table(10**5), 0, "limit 100000 needs ~{} bytes for the sieve"),
    (lambda t: build_table(10**5), 1, "limit 100000 needs ~{} bytes for the table"),
    (lambda t: find_witness(t, random_coloring(1, 2, 400), FpF(3), SearchBounds(2, 400)), 0,
     "a block of 1 candidates needs ~{} bytes for its values"),
    (lambda t: verify_laws(30, t), 0, "limit 100000 needs ~{} bytes for the laws on ranks 0..30"),
    (lambda t: verify_laws(30, t), 1, "limit 100000 needs ~{} bytes for the laws on ranks 0..30"),
    (lambda t: from_provenance("random:seed=0,r=2,bound=1000"), 0,
     "coloring bound 1000 needs ~{} bytes for its colors"),
], ids=["sieve", "table", "block-lines", "laws-grid", "laws-side-grids", "descriptor"])
def test_budget_check_passes_at_its_need_and_refuses_one_byte_below(
        table_100k, monkeypatch, call, skip, message):
    """Each of the six checks reads ground.DEFAULT_MAX_BYTES when it runs:
    the budget is raised past the `skip` checks the call meets first, then
    set to the target check's need and one byte below it."""
    need = 0
    for _ in range(skip + 1):
        need = _refusal(monkeypatch, need, lambda: call(table_100k))[0]
    below = _refusal(monkeypatch, need - 1, lambda: call(table_100k))
    assert below == (need, message.format(need) + f", budget is {need - 1}")
    at = _refusal(monkeypatch, need, lambda: call(table_100k))
    assert at is None or at[0] > need
