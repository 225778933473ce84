"""Shared fixtures: the paper's testbed topology and friends."""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.topology import (
    TESTBED_BLUE_PATH,
    TESTBED_GREEN_PATH,
    ClosParams,
    Topology,
    clos3,
    testbed_clos,
)

# CI smoke lanes shrink the property sweeps without editing any test:
# select with REPRO_HYPOTHESIS_PROFILE=ci-smoke. Suites that pin their
# own example counts derive them from ``settings.default.max_examples``
# (the loaded profile) so the cap propagates without per-test edits.
settings.register_profile(
    "ci-smoke",
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden rule-table snapshots under tests/golden/ "
        "instead of comparing against them",
    )


@pytest.fixture
def testbed() -> Topology:
    """The paper's 8-switch / 16-host Clos testbed (Fig. 2)."""
    return testbed_clos()


@pytest.fixture
def small_clos() -> Topology:
    """A 1-host-per-ToR Clos, cheap for algorithm tests."""
    return clos3(ClosParams(hosts_per_tor=1))


@pytest.fixture
def triangle() -> Topology:
    """Fig. 1's contrived 3-switch ring with one host per switch."""
    topo = Topology(name="triangle")
    for name in ("A", "B", "C"):
        topo.add_switch(name, layer=0)
    topo.add_link("A", "B")
    topo.add_link("B", "C")
    topo.add_link("C", "A")
    for name in ("A", "B", "C"):
        host = f"H{name}"
        topo.add_host(host)
        topo.add_link(host, name)
    return topo


@pytest.fixture
def bounce_paths():
    """Paper Fig. 3's two 1-bounce paths (green, blue) on the testbed."""
    return TESTBED_GREEN_PATH, TESTBED_BLUE_PATH
