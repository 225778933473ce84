"""Property-based tests (hypothesis) for the tagging algorithms.

The DESIGN.md invariants 1-4: for random layered topologies and random
loop-free ELP subsets, Algorithm 1 and both minimizers always satisfy
the two deadlock-freedom requirements, never increase the tag count, and
preserve ELP coverage.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    UpDownElpProvider,
    bruteforce_tagging,
    coverage_report,
    deterministic_minimize,
    greedy_minimize,
    verify_tagged_graph,
)
from repro.core.elp import clos_bounce_elp
from repro.routing import bounce_paths
from repro.topology import ClosParams, clos3

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def clos_topologies(draw):
    params = ClosParams(
        num_pods=draw(st.integers(min_value=1, max_value=3)),
        tors_per_pod=draw(st.integers(min_value=2, max_value=3)),
        leaves_per_pod=draw(st.integers(min_value=1, max_value=2)),
        num_spines=draw(st.integers(min_value=1, max_value=3)),
        hosts_per_tor=0,
    )
    return clos3(params)


@st.composite
def topo_with_elp(draw):
    topo = draw(clos_topologies())
    tors = sorted(topo.switches_at_layer(0))
    all_paths = UpDownElpProvider().build(topo).paths
    src, dst = tors[0], tors[-1]
    all_paths = all_paths + bounce_paths(
        topo, src, dst, max_bounces=1, max_paths=20
    )
    # Only multi-hop paths induce tagged-graph nodes.
    candidates = sorted({p for p in all_paths if len(p) >= 2})
    assert candidates, "every generated Clos has at least one ToR pair"
    subset = draw(
        st.sets(
            st.sampled_from(candidates),
            min_size=1,
            max_size=min(40, len(candidates)),
        )
    )
    return topo, sorted(subset)


@given(topo_with_elp())
@SETTINGS
def test_bruteforce_always_satisfies_requirements(data):
    topo, elp = data
    graph = bruteforce_tagging(topo, elp)
    assert verify_tagged_graph(graph).deadlock_free


@given(topo_with_elp())
@SETTINGS
def test_greedy_safe_and_never_worse(data):
    topo, elp = data
    bf = bruteforce_tagging(topo, elp)
    merged = greedy_minimize(bf)
    assert verify_tagged_graph(merged).deadlock_free
    assert merged.max_tag <= bf.max_tag
    assert merged.ports() == bf.ports()


@given(topo_with_elp())
@SETTINGS
def test_deterministic_safe_and_covering(data):
    topo, elp = data
    bf = bruteforce_tagging(topo, elp)
    result = deterministic_minimize(topo, bf)
    assert verify_tagged_graph(result.graph).deadlock_free
    assert result.num_tags <= bf.max_tag
    lossless, total, demoted = coverage_report(topo, result.tables, elp)
    # The deterministic minimizer may demote only on contradictions;
    # absent contradictions coverage is exact.
    if result.contradictions == 0:
        assert lossless == total


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
)
@SETTINGS
def test_clos_tagger_graph_always_safe(k, pods, spines):
    from repro.core import ClosTagger

    topo = clos3(
        ClosParams(
            num_pods=pods,
            tors_per_pod=2,
            leaves_per_pod=2,
            num_spines=spines,
            hosts_per_tor=1,
        )
    )
    tagger = ClosTagger(topo, max_bounces=k)
    report = verify_tagged_graph(tagger.tagged_graph())
    assert report.deadlock_free
    assert report.num_tags == k + 1


@given(st.integers(min_value=0, max_value=2))
@SETTINGS
def test_clos_tagger_covers_exactly_its_budget(k):
    topo = clos3(ClosParams(hosts_per_tor=0))
    from repro.core import ClosTagger
    from repro.routing import all_bounce_paths, count_bounces

    tagger = ClosTagger(topo, max_bounces=k)
    paths = all_bounce_paths(
        topo, k + 1, endpoints=["T1", "T3"], max_paths_per_pair=15
    )
    for path in paths:
        expected = count_bounces(topo, path) <= k
        assert tagger.path_stays_lossless(path) == expected
