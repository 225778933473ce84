"""Topology substrate: builders for the fabrics the Tagger paper evaluates.

Public API:

- :class:`repro.topology.base.Topology` — the core port/link model.
- :func:`repro.topology.clos.clos3` / :func:`testbed_clos` / :func:`leaf_spine`
- :func:`repro.topology.fattree.fattree`
- :func:`repro.topology.bcube.bcube`
- :func:`repro.topology.jellyfish.jellyfish`
- :mod:`repro.topology.failures` — failure sampler and topology deltas.
"""

from repro.topology.base import HOST, SWITCH, Link, Node, Topology
from repro.topology.bcube import bcube, bcube_default_route, bcube_servers
from repro.topology.clos import (
    LEAF_LAYER,
    SPINE_LAYER,
    TESTBED_BLUE_PATH,
    TESTBED_GREEN_PATH,
    TOR_LAYER,
    ClosParams,
    clos3,
    leaf_spine,
    pod_of,
    testbed_clos,
    upward_neighbors,
)
from repro.topology.failures import (
    RandomLinkFailures,
    TopologyDelta,
    apply_delta,
    random_delta_sequence,
    switch_links,
)
from repro.topology.expansion import ExpansionResult, expand_clos
from repro.topology.flexible import (
    add_express_link,
    express_links,
    reconfigure_express,
)
from repro.topology.fattree import fattree
from repro.topology.jellyfish import jellyfish

__all__ = [
    "HOST",
    "SWITCH",
    "Link",
    "Node",
    "Topology",
    "LEAF_LAYER",
    "SPINE_LAYER",
    "TOR_LAYER",
    "ClosParams",
    "clos3",
    "testbed_clos",
    "TESTBED_GREEN_PATH",
    "TESTBED_BLUE_PATH",
    "leaf_spine",
    "pod_of",
    "upward_neighbors",
    "fattree",
    "expand_clos",
    "ExpansionResult",
    "add_express_link",
    "express_links",
    "reconfigure_express",
    "bcube",
    "bcube_servers",
    "bcube_default_route",
    "jellyfish",
    "RandomLinkFailures",
    "TopologyDelta",
    "apply_delta",
    "random_delta_sequence",
    "switch_links",
]
