"""Property tests: symmetry-strategy planning ≡ exhaustive enumeration.

The headline contract of :mod:`repro.core.symmetry`: for every topology
and provider, :meth:`TaggerPlan.from_provider` compiles *byte-identical*
plans under the ``symmetry`` strategy (closed-form orbit replication
when the fabric certifies, exhaustive degradation otherwise) and under
forced ``exhaustive`` enumeration — identical rule tables, tagged
graph, queue map and description. The suite sweeps:

- seeded Clos fabrics across the parameter space (certified fast path);
- Jellyfish and BCube fabrics via the shortest-path provider (degrades:
  wrong provider type);
- leaf-spine (2-layer) and express-augmented Clos (certified — express
  links are invisible to up-down routing);
- asymmetric states — failed links, drained switches, endpoint subsets,
  pinned extra paths — where symmetry must *safely* degrade.

The same oracle runs continuously inside the fuzz harness as the
``symmetry-divergence`` invariant (:mod:`repro.fuzz.crosscheck`).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    STRATEGY_EXHAUSTIVE,
    STRATEGY_SYMMETRY,
    ShortestPathElpProvider,
    TaggerPlan,
    UpDownElpProvider,
    tables_equal,
)
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


def assert_strategies_equivalent(
    make_topo,
    provider_factory,
    label: str,
    extra_paths=(),
    expect_certified=None,
):
    """Plan twice (symmetry vs exhaustive) and demand identical bytes.

    Refusals must agree too: when one strategy raises, the other must
    raise as well. Returns the symmetry plan (or None on agreed refusal)
    so callers can assert on its meta.
    """
    sym_exc = exh_exc = None
    sym = exh = None
    try:
        sym = TaggerPlan.from_provider(
            make_topo(),
            provider_factory(),
            extra_paths=extra_paths,
            strategy=STRATEGY_SYMMETRY,
        )
    except TaggingError as exc:
        sym_exc = str(exc)
    try:
        exh = TaggerPlan.from_provider(
            make_topo(),
            provider_factory(),
            extra_paths=extra_paths,
            strategy=STRATEGY_EXHAUSTIVE,
        )
    except TaggingError as exc:
        exh_exc = str(exc)
    if sym_exc is not None or exh_exc is not None:
        assert sym_exc == exh_exc, (
            f"{label}: strategies disagree on refusal "
            f"(symmetry={sym_exc!r}, exhaustive={exh_exc!r})"
        )
        return None
    assert tables_equal(sym.tables, exh.tables), (
        f"{label}: rule tables diverged between strategies"
    )
    assert sym.graph == exh.graph, (
        f"{label}: tagged graph diverged between strategies"
    )
    assert sym.queue_map == exh.queue_map, (
        f"{label}: queue map diverged between strategies"
    )
    assert sym.description == exh.description, (
        f"{label}: description diverged between strategies"
    )
    assert sym.meta["strategy"] == STRATEGY_SYMMETRY
    assert exh.meta["certified"] is False
    assert sym.meta["elp_paths"] == exh.meta["elp_paths"], (
        f"{label}: path accounting diverged "
        f"({sym.meta['elp_paths']} vs {exh.meta['elp_paths']})"
    )
    if expect_certified is not None:
        assert sym.meta["certified"] is expect_certified, (
            f"{label}: expected certified={expect_certified}, "
            f"got {sym.meta['certified']}"
        )
    return sym


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
    sym = assert_strategies_equivalent(
        lambda: clos3(params), UpDownElpProvider, f"clos {params}"
    )
    if sym is not None:
        # clos3 always wires disjoint complete-bipartite pods, so every
        # healthy instance must take the closed-form path.
        assert sym.meta["certified"] is True


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=1),
)
@SETTINGS
def test_leaf_spine_certifies_and_matches(leaves, spines, hosts):
    assert_strategies_equivalent(
        lambda: leaf_spine(leaves, spines, hosts),
        UpDownElpProvider,
        f"leaf_spine({leaves},{spines})",
        expect_certified=True,
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

    assert_strategies_equivalent(
        make_topo,
        UpDownElpProvider,
        f"express clos {params}",
        expect_certified=True,
    )


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
    sym = assert_strategies_equivalent(
        lambda: clos3(params),
        UpDownElpProvider,
        f"extras clos {params}",
        extra_paths=extras,
        expect_certified=True,
    )
    assert sym is not None
    assert sym.meta["elp_paths"] == len(all_paths) + len(extras)


# ----------------------------------------------------------------------
# Asymmetry: symmetry must degrade to exhaustive, byte-identically
# ----------------------------------------------------------------------
@given(clos_params(), st.integers(min_value=0, max_value=2**20))
@SETTINGS
def test_failed_link_degrades_to_exhaustive(params, seed):
    probe = clos3(params)
    links = sorted(
        (link.a, link.b)
        for link in probe.iter_links()
        if probe.node(link.a).is_switch and probe.node(link.b).is_switch
    )
    if not links:
        return
    a, b = links[seed % len(links)]

    def make_topo():
        topo = clos3(params)
        topo.fail_link(a, b)
        return topo

    assert_strategies_equivalent(
        make_topo,
        UpDownElpProvider,
        f"failed {a}<->{b} clos {params}",
        expect_certified=False,
    )


@given(clos_params(), st.integers(min_value=0, max_value=2**20))
@SETTINGS
def test_drained_switch_degrades_to_exhaustive(params, seed):
    """A drained leaf (all its links down) breaks pod symmetry."""
    probe = clos3(params)
    leaves = sorted(probe.switches_at_layer(1))
    if not leaves:
        return
    drained = leaves[seed % len(leaves)]

    def make_topo():
        topo = clos3(params)
        for peer in sorted(topo.neighbors(drained)):
            if topo.node(peer).is_switch:
                topo.fail_link(drained, peer)
        return topo

    assert_strategies_equivalent(
        make_topo,
        UpDownElpProvider,
        f"drained {drained} clos {params}",
        expect_certified=False,
    )


@given(clos_params(), st.integers(min_value=0, max_value=2**20))
@SETTINGS
def test_endpoint_subset_degrades_to_exhaustive(params, seed):
    """An ELP pinned to a ToR subset is outside the closed form."""
    probe = clos3(params)
    tors = sorted(probe.switches_at_layer(0))
    if len(tors) < 2:
        return
    keep = tuple(tors[: 1 + seed % (len(tors) - 1)])
    assert_strategies_equivalent(
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
    assert_strategies_equivalent(
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
    assert_strategies_equivalent(
        lambda: bcube(n, 1),
        ShortestPathElpProvider,
        f"bcube({n},1)",
        expect_certified=False,
    )

