"""Shared fixtures for the benchmark suite.

Benchmarks use reduced-scale scenarios so that ``pytest benchmarks/
--benchmark-only`` completes in minutes; the experiment harness
(``python -m repro.experiments``) is the tool for full-scale runs.
"""

import pytest

from repro.datasets import load_scenario

BENCH_SCALE = 0.4
BENCH_GRID_ORDER = 10


@pytest.fixture(scope="session")
def ole_ope():
    """The OLE-OPE (lakes vs parks) scenario at benchmark scale."""
    return load_scenario("OLE-OPE", scale=BENCH_SCALE, grid_order=BENCH_GRID_ORDER)


@pytest.fixture(scope="session")
def obe_ope():
    """The OBE-OPE (buildings vs parks) scenario at benchmark scale."""
    return load_scenario("OBE-OPE", scale=BENCH_SCALE, grid_order=BENCH_GRID_ORDER)


@pytest.fixture(scope="session")
def tc_tz():
    """The TC-TZ (counties vs zip codes) scenario at benchmark scale."""
    return load_scenario("TC-TZ", scale=BENCH_SCALE, grid_order=BENCH_GRID_ORDER)
