"""Shared fixtures: ground tables at several scales."""

import time

import pytest

from sqstar import build_table


@pytest.fixture(scope="session")
def table_100k():
    return build_table(100_000)


@pytest.fixture(scope="session")
def table_1m():
    return build_table(1_000_000)


@pytest.fixture(scope="session")
def table_100m_timed():
    """The big table plus its wall-clock build time, built exactly once."""
    t0 = time.perf_counter()
    table = build_table(100_000_000)
    return table, time.perf_counter() - t0
