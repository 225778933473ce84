"""Property tests: provider planning ≡ Algorithm 1 on the explicit ELP.

The headline contract of :mod:`repro.core.symmetry`: for every topology
and provider, :meth:`TaggerPlan.from_provider` (closed-form orbit
replication when the fabric certifies, the per-pair walk otherwise)
compiles plans *byte-identical* to
``TaggerPlan.from_elp(topo, provider.build(topo))`` — identical rule
tables, tagged graph, queue map and description. The suite sweeps:

- seeded Clos fabrics across the parameter space (certified fast path);
- Jellyfish and BCube fabrics via the shortest-path provider (degrades:
  wrong provider type);
- leaf-spine (2-layer) and express-augmented Clos (certified — express
  links are invisible to up-down routing);
- damaged Clos fabrics — one to three failed links, four to eight
  failed links plus a drained switch, drained leaves, spines and ToR
  endpoints, a pair cut off from every pristine path, a failure set
  that empties the ELP — planned from the liveness-aware closed form;
- endpoint subsets, where symmetry must *safely* degrade, and pinned
  extra paths, which ride the certified path.

On every healthy certified fabric it also pins the closed form to the
per-path walk: the nodes and edges ``populate_graph`` emits are those
of every path the provider's ``pair_paths`` enumerates, walked through
``tagged_walk``, and the path count it returns is their number.

The same oracle runs continuously inside the fuzz harness as the
``symmetry-divergence`` invariant (:mod:`repro.fuzz.crosscheck`).
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ShortestPathElpProvider,
    TaggedGraph,
    TaggerPlan,
    UpDownElpProvider,
    tables_equal,
)
from repro.core.symmetry import certify
from repro.core.tags import tagged_walk
from repro.exceptions import TaggingError
from repro.topology import (
    ClosParams,
    add_express_link,
    bcube,
    clos3,
    jellyfish,
    leaf_spine,
)

# Derive example counts from the active profile so CI smoke lanes
# (REPRO_HYPOTHESIS_PROFILE=ci-smoke, registered in tests/conftest.py)
# shrink this suite without editing it.
SETTINGS = settings(
    max_examples=min(15, settings.default.max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class Walked(UpDownElpProvider):
    """The up-down ELP through a provider :func:`certify` refuses by
    contract (a subclass may override ``pair_paths``): planners built on
    it take the per-pair walk on the same healthy fabric, so tests can
    pin that path's internal state against the closed form's."""


def assert_matches_explicit_elp(
    make_topo,
    provider_factory,
    label: str,
    extra_paths=(),
    expect_certified=None,
):
    """Plan through the provider and through ``from_elp`` on its ELP,
    and demand identical bytes.

    Refusals must agree too: when one side raises, the other must raise
    as well. Returns the provider plan (or None on agreed refusal) so
    callers can assert on its meta.
    """
    got_exc = want_exc = None
    got = want = None
    elp_size = None
    try:
        got = TaggerPlan.from_provider(
            make_topo(), provider_factory(), extra_paths=extra_paths
        )
    except TaggingError as exc:
        got_exc = str(exc)
    try:
        topo = make_topo()
        elp = list(provider_factory().build(topo)) + list(extra_paths)
        elp_size = len(elp)
        want = TaggerPlan.from_elp(topo, elp)
    except TaggingError as exc:
        want_exc = str(exc)
    if got_exc is not None or want_exc is not None:
        assert got_exc == want_exc, (
            f"{label}: planners disagree on refusal "
            f"(from_provider={got_exc!r}, from_elp={want_exc!r})"
        )
        return None
    assert tables_equal(got.tables, want.tables), (
        f"{label}: rule tables diverged from from_elp"
    )
    assert got.graph == want.graph, (
        f"{label}: tagged graph diverged from from_elp"
    )
    assert got.queue_map == want.queue_map, (
        f"{label}: queue map diverged from from_elp"
    )
    assert got.description == want.description, (
        f"{label}: description diverged from from_elp"
    )
    assert got.meta["elp_paths"] == elp_size, (
        f"{label}: path accounting diverged "
        f"({got.meta['elp_paths']} vs {elp_size})"
    )
    if expect_certified is not None:
        assert got.meta["certified"] is expect_certified, (
            f"{label}: expected certified={expect_certified}, "
            f"got {got.meta['certified']}"
        )
    return got


def assert_graph_matches_walk(topo, label: str) -> None:
    """The certificate's closed-form graph is the per-path walk over the
    provider's pair paths, and its path count is theirs."""
    provider = UpDownElpProvider()
    cert = certify(topo, provider)
    assert cert is not None, f"{label}: expected a certificate"
    walked = TaggedGraph()
    count = 0
    for pair in provider.ordered_pairs(topo):
        for path in provider.pair_paths(topo, *pair):
            walk = tagged_walk(topo, path)
            for edge in zip(walk, walk[1:]):
                walked.add_edge(*edge)
            count += 1
    graph = TaggedGraph()
    assert cert.populate_graph(graph) == (count, 0), label
    assert graph == walked, f"{label}: populate_graph diverged from the walk"


# ----------------------------------------------------------------------
# Healthy symmetric fabrics: the certified closed-form fast path
# ----------------------------------------------------------------------
@st.composite
def clos_params(draw):
    return ClosParams(
        num_pods=draw(st.integers(min_value=1, max_value=4)),
        tors_per_pod=draw(st.integers(min_value=1, max_value=4)),
        leaves_per_pod=draw(st.integers(min_value=1, max_value=3)),
        num_spines=draw(st.integers(min_value=1, max_value=3)),
        hosts_per_tor=draw(st.integers(min_value=0, max_value=1)),
    )


@given(clos_params())
@SETTINGS
def test_healthy_clos_certifies_and_matches(params):
    sym = assert_matches_explicit_elp(
        lambda: clos3(params), UpDownElpProvider, f"clos {params}"
    )
    if sym is not None:
        # clos3 always wires disjoint complete-bipartite pods, so every
        # healthy instance must take the closed-form path.
        assert sym.meta["certified"] is True
    assert_graph_matches_walk(clos3(params), f"clos {params}")


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=1),
)
@SETTINGS
def test_leaf_spine_certifies_and_matches(leaves, spines, hosts):
    assert_matches_explicit_elp(
        lambda: leaf_spine(leaves, spines, hosts),
        UpDownElpProvider,
        f"leaf_spine({leaves},{spines})",
        expect_certified=True,
    )
    assert_graph_matches_walk(
        leaf_spine(leaves, spines, hosts), f"leaf_spine({leaves},{spines})"
    )


@given(clos_params(), st.integers(min_value=0, max_value=2**20))
@SETTINGS
def test_express_links_stay_certified(params, seed):
    """ToR-ToR express links are invisible to up-down enumeration."""
    if params.num_pods * params.tors_per_pod < 2:
        return

    def make_topo():
        topo = clos3(params)
        tors = sorted(topo.switches_at_layer(0))
        a = tors[seed % len(tors)]
        b = tors[(seed // len(tors) + 1 + seed % (len(tors) - 1)) % len(tors)]
        if a != b:
            add_express_link(topo, a, b)
        return topo

    assert_matches_explicit_elp(
        make_topo,
        UpDownElpProvider,
        f"express clos {params}",
        expect_certified=True,
    )
    assert_graph_matches_walk(make_topo(), f"express clos {params}")


@given(clos_params(), st.integers(min_value=0, max_value=2**20))
@SETTINGS
def test_pinned_extras_ride_the_certified_path(params, seed):
    """Operator-pinned extra paths compose with the closed form."""
    topo = clos3(params)
    provider = UpDownElpProvider()
    all_paths = [
        p
        for pair in provider.ordered_pairs(topo)
        for p in provider.pair_paths(topo, *pair)
    ]
    if not all_paths:
        return
    extras = (all_paths[seed % len(all_paths)],)
    sym = assert_matches_explicit_elp(
        lambda: clos3(params),
        UpDownElpProvider,
        f"extras clos {params}",
        extra_paths=extras,
        expect_certified=True,
    )
    assert sym is not None
    assert sym.meta["elp_paths"] == len(all_paths) + len(extras)


# ----------------------------------------------------------------------
# Damaged fabrics: the closed form filtered by link liveness
# ----------------------------------------------------------------------
def _switch_links(topo):
    return sorted(
        (link.a, link.b)
        for link in topo.iter_links()
        if topo.node(link.a).is_switch and topo.node(link.b).is_switch
    )


def drain(topo, switch):
    """Fail every switch link of ``switch``, as a drain does."""
    for peer in sorted(topo.neighbors(switch)):
        if topo.node(peer).is_switch:
            topo.fail_link(switch, peer)


def assert_damaged_matches(make_topo, label):
    """A damaged Clos plans certified, reports its residue pairs as the
    pairs it walked, and matches ``from_elp`` on the provider's ELP byte
    for byte, path count included."""
    cert = certify(make_topo(), UpDownElpProvider())
    assert cert is not None, f"{label}: damaged Clos refused"
    plan = assert_matches_explicit_elp(
        make_topo, UpDownElpProvider, label, expect_certified=True
    )
    if plan is not None:
        assert plan.meta["walked_pairs"] == len(cert.residue), label
    return cert, plan


@given(
    clos_params(),
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=1, max_value=3),
)
@SETTINGS
def test_failed_links_plan_from_the_residue(params, seed, count):
    """One or several failed switch links, anywhere in the fabric."""
    links = _switch_links(clos3(params))
    if not links:
        return
    failed = [links[(seed + i * 7919) % len(links)] for i in range(count)]

    def make_topo():
        topo = clos3(params)
        for link in failed:
            topo.fail_link(*link)
        return topo

    assert_damaged_matches(make_topo, f"failed {failed} clos {params}")


@given(
    clos_params(),
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=4, max_value=8),
)
@SETTINGS
def test_many_failed_links_and_a_drain_plan_exactly(params, seed, count):
    """Four to eight failed switch links plus a drained switch: the
    liveness filter and the cut pairs' walk compose exactly."""
    links = _switch_links(clos3(params))
    if not links:
        return
    rng = random.Random(seed)
    failed = rng.sample(links, min(count, len(links)))
    drained = rng.choice(sorted(clos3(params).switches))

    def make_topo():
        topo = clos3(params)
        for link in failed:
            topo.fail_link(*link)
        drain(topo, drained)
        return topo

    assert_damaged_matches(
        make_topo, f"failed {failed} drained {drained} clos {params}"
    )


@given(clos_params(), st.integers(min_value=0, max_value=2**20))
@SETTINGS
def test_drained_switch_plans_from_the_residue(params, seed):
    """A drained ToR, leaf or spine (all its switch links down); a
    drained ToR leaves every pair it is an endpoint of without paths."""
    switches = sorted(clos3(params).switches)
    drained = switches[seed % len(switches)]

    def make_topo():
        topo = clos3(params)
        drain(topo, drained)
        return topo

    assert_damaged_matches(make_topo, f"drained {drained} clos {params}")


def test_drained_leaf_and_tor_endpoint():
    params = ClosParams(3, 3, 2, 2, hosts_per_tor=1)
    for drained in ("L1", "T1"):

        def make_topo():
            topo = clos3(params)
            drain(topo, drained)
            return topo

        cert, plan = assert_damaged_matches(make_topo, f"drained {drained}")
        assert cert.residue and plan is not None
    # T1 drained: its 8 pairs each way have no path left.
    topo = make_topo()
    assert [
        pair
        for pair in cert.residue
        if not UpDownElpProvider().pair_paths(topo, *pair)
    ] == [pair for pair in cert.residue if "T1" in pair]


def test_pair_cut_off_entirely_is_enumerated_again():
    """Every pristine path of (T1, T2) crosses a failed link, so the pair
    is re-enumerated on the damaged fabric: it now climbs to a spine."""
    params = ClosParams(2, 2, 2, 2, hosts_per_tor=1)

    def make_topo():
        topo = clos3(params)
        topo.fail_link("T1", "L1")
        topo.fail_link("T2", "L2")
        return topo

    cert, plan = assert_damaged_matches(make_topo, "cut (T1, T2)")
    assert ("T1", "T2") in cert.residue and plan is not None
    damaged = UpDownElpProvider().pair_paths(make_topo(), "T1", "T2")
    assert damaged and all(len(path) == 5 for path in damaged)


def test_residue_that_empties_the_elp_is_refused_by_both():
    params = ClosParams(1, 2, 1, 1, hosts_per_tor=1)

    def make_topo():
        topo = clos3(params)
        topo.fail_link("T1", "L1")
        return topo

    cert, plan = assert_damaged_matches(make_topo, "emptied ELP")
    assert cert.residue and plan is None
    assert not UpDownElpProvider().build(make_topo()).paths


# ----------------------------------------------------------------------
# Asymmetry: the closed form must degrade to the walk, byte-identically
# ----------------------------------------------------------------------
@given(clos_params(), st.integers(min_value=0, max_value=2**20))
@SETTINGS
def test_endpoint_subset_degrades_to_exhaustive(params, seed):
    """An ELP pinned to a ToR subset is outside the closed form."""
    probe = clos3(params)
    tors = sorted(probe.switches_at_layer(0))
    if len(tors) < 2:
        return
    keep = tuple(tors[: 1 + seed % (len(tors) - 1)])
    assert_matches_explicit_elp(
        lambda: clos3(params),
        lambda: UpDownElpProvider(explicit_endpoints=keep),
        f"subset {len(keep)}/{len(tors)} clos {params}",
        expect_certified=False,
    )


# ----------------------------------------------------------------------
# Non-Clos families: wrong provider type, trivially degraded
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=0, max_value=2**20),
)
@SETTINGS
def test_jellyfish_degrades_to_exhaustive(num_switches, seed):
    network_ports = 3 if num_switches > 3 else 2
    if (num_switches * network_ports) % 2 != 0:
        num_switches += 1
    assert_matches_explicit_elp(
        lambda: jellyfish(
            num_switches=num_switches,
            ports_per_switch=network_ports + 1,
            network_ports=network_ports,
            hosts_per_switch=0,
            seed=seed,
        ),
        ShortestPathElpProvider,
        f"jellyfish({num_switches}, seed={seed})",
        expect_certified=False,
    )


@given(st.integers(min_value=2, max_value=3))
@SETTINGS
def test_bcube_degrades_to_exhaustive(n):
    assert_matches_explicit_elp(
        lambda: bcube(n, 1),
        ShortestPathElpProvider,
        f"bcube({n},1)",
        expect_certified=False,
    )

