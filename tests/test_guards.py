"""Argument guards that no other test reaches: each one can fail."""

import re

import numpy as np
import pytest

from sqstar import (
    Brauer,
    Coloring,
    GeoArithmetic,
    GroundTable,
    MillikenTaylor,
    PhiLinear,
    PhiProjection,
    PhiSum,
    PolyVdW,
    periodic_coloring,
    verify_laws,
)


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
