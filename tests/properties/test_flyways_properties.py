"""Property-based tests for the turn rule on express-link (Flyways) fabrics."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LOSSY_TAG, ClosTagger, verify_tagged_graph
from repro.topology import ClosParams, add_express_link, clos3

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def express_fabrics(draw):
    """A small Clos plus a random set of ToR-ToR express links."""
    topo = clos3(
        ClosParams(
            num_pods=2,
            tors_per_pod=2,
            leaves_per_pod=2,
            num_spines=2,
            hosts_per_tor=1,
        )
    )
    tors = sorted(topo.switches_at_layer(0))
    pairs = [
        (a, b) for i, a in enumerate(tors) for b in tors[i + 1:]
    ]
    chosen = draw(
        st.sets(st.sampled_from(pairs), min_size=0, max_size=len(pairs))
    )
    for a, b in sorted(chosen):
        add_express_link(topo, a, b)
    return topo


@given(express_fabrics(), st.integers(min_value=0, max_value=3))
@SETTINGS
def test_flyways_graph_always_deadlock_free(topo, budget):
    """For ANY express wiring and budget, the turn rule satisfies both Theorem 5.1 requirements."""
    tagger = ClosTagger(topo, max_bounces=budget)
    report = verify_tagged_graph(tagger.tagged_graph())
    assert report.deadlock_free
    assert report.num_tags == budget + 1


@given(express_fabrics())
@SETTINGS
def test_tags_monotone_along_random_walks(topo):
    """Along any physical trajectory, live tags never decrease and once
    lossy a packet stays lossy."""
    import random

    tagger = ClosTagger(topo, max_bounces=2)
    rng = random.Random(17)
    for _ in range(20):
        switches = sorted(topo.switches)
        node = rng.choice(switches)
        walk = [node]
        visited = {node}
        while len(walk) < 7:
            candidates = [
                peer
                for peer in topo.neighbors(node)
                if topo.node(peer).is_switch and peer not in visited
            ]
            if not candidates:
                break
            node = rng.choice(candidates)
            walk.append(node)
            visited.add(node)
        if len(walk) < 3:
            continue
        tags = tagger.tag_along_path(walk)
        live = [t for t in tags if t != LOSSY_TAG]
        assert live == sorted(live)
        if LOSSY_TAG in tags:
            first = tags.index(LOSSY_TAG)
            assert all(t == LOSSY_TAG for t in tags[first:])


@given(express_fabrics())
@SETTINGS
def test_updown_paths_never_pay(topo):
    """Express links in the fabric never tax traffic that avoids them."""
    from repro.routing import updown_paths

    tagger = ClosTagger(topo, max_bounces=0)
    tors = sorted(topo.switches_at_layer(0))
    for src in tors[:2]:
        for dst in tors[2:]:
            for path in updown_paths(topo, src, dst)[:4]:
                assert tagger.tag_along_path(path) == [1] * (len(path) - 1)
