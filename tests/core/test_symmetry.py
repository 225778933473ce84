"""Unit tests for the symmetry certificate (repro.core.symmetry).

The property suite establishes byte-identity against Algorithm 1 on
the explicit ELP; these tests pin the *gate*: every structural condition
under which :func:`certify` must refuse (returning ``None`` so callers
degrade safely), the residue it reports for failed links, plus the
closed-form accessors on a certificate built by hand.
"""

from repro.core import (
    ShortestPathElpProvider,
    TaggerPlan,
    UpDownElpProvider,
    certify,
)
from repro.topology import ClosParams, Topology, clos3

SMALL = ClosParams(
    num_pods=2, tors_per_pod=2, leaves_per_pod=2, num_spines=2,
    hosts_per_tor=0,
)


# ----------------------------------------------------------------------
# certify: every refusal branch
# ----------------------------------------------------------------------
def test_healthy_clos_certifies():
    assert certify(clos3(SMALL), UpDownElpProvider()) is not None


def test_wrong_provider_type_refused():
    assert certify(clos3(SMALL), ShortestPathElpProvider()) is None


def test_provider_subclass_refused():
    """A subclass may override pair_paths; the exact-type check is load-
    bearing, not pedantry."""

    class TweakedProvider(UpDownElpProvider):
        pass

    assert certify(clos3(SMALL), TweakedProvider()) is None


def test_failed_link_certifies_with_its_residue():
    """A failed link keeps the pristine certificate; the residue is the
    ToR's pairs, all of which had a pristine path through that link."""
    topo = clos3(SMALL)
    tor = sorted(topo.switches_at_layer(0))[0]
    leaf = next(
        peer
        for peer in sorted(topo.neighbors(tor))
        if topo.node(peer).is_switch
    )
    topo.fail_link(tor, leaf)
    cert = certify(topo, UpDownElpProvider())
    assert cert is not None
    others = [t for t in sorted(topo.switches_at_layer(0)) if t != tor]
    assert cert.residue == tuple(
        sorted([(tor, t) for t in others] + [(t, tor) for t in others])
    )
    assert cert.path_count() == certify(
        clos3(SMALL), UpDownElpProvider()
    ).path_count()


def test_residue_is_the_pairs_through_failed_links():
    """Per failed switch link, and for all of them at once, the residue is
    exactly the pairs with a pristine path through a failed link."""
    params = ClosParams(3, 2, 2, 2, hosts_per_tor=1)
    probe = clos3(params)
    links = sorted(
        (link.a, link.b)
        for link in probe.iter_links()
        if probe.node(link.a).is_switch and probe.node(link.b).is_switch
    )
    tors = sorted(probe.switches_at_layer(0))
    pairs = [(s, d) for s in tors for d in tors if s != d]
    for failed in [[link] for link in links] + [links[::3]]:
        topo = clos3(params)
        for link in failed:
            topo.fail_link(*link)
        hops = {hop for a, b in failed for hop in ((a, b), (b, a))}
        want = tuple(
            pair
            for pair in pairs
            if any(
                hop in hops
                for path in UpDownElpProvider().pair_paths(probe, *pair)
                for hop in zip(path, path[1:])
            )
        )
        cert = certify(topo, UpDownElpProvider())
        assert cert is not None and cert.residue == want, failed


def test_endpoint_subset_refused():
    topo = clos3(SMALL)
    tors = sorted(topo.switches_at_layer(0))
    provider = UpDownElpProvider(explicit_endpoints=tors[:-1])
    assert certify(topo, provider) is None


def test_full_endpoint_set_accepted_regardless_of_order():
    topo = clos3(SMALL)
    tors = sorted(topo.switches_at_layer(0))
    provider = UpDownElpProvider(explicit_endpoints=list(reversed(tors)))
    assert certify(topo, provider) is not None


def test_duplicate_endpoints_refused():
    """A duplicated endpoint enumerates its pairs twice; the closed form
    counts them once, so the certificate must refuse."""
    topo = clos3(ClosParams(2, 2, 2, 2, hosts_per_tor=1))
    tors = sorted(topo.switches_at_layer(0))
    provider = UpDownElpProvider(explicit_endpoints=tors + [tors[0]])
    assert certify(topo, provider) is None
    plan = TaggerPlan.from_provider(topo, provider)
    assert plan.meta["certified"] is False
    assert plan.meta["elp_paths"] == len(provider.build(topo)) == 108


def test_unlayered_switch_refused():
    topo = clos3(SMALL)
    topo.add_switch("MGMT")  # no layer assigned
    assert certify(topo, UpDownElpProvider()) is None


def test_fourth_layer_switch_refused():
    topo = clos3(SMALL)
    topo.add_switch("CORE", layer=3)
    spine = sorted(topo.switches_at_layer(2))[0]
    topo.add_link("CORE", spine)
    assert certify(topo, UpDownElpProvider()) is None


def _bipartite_pod(*, complete: bool) -> Topology:
    topo = Topology()
    for tor in ("T1", "T2"):
        topo.add_switch(tor, layer=0)
    for leaf in ("L1", "L2"):
        topo.add_switch(leaf, layer=1)
    topo.add_link("T1", "L1")
    topo.add_link("T1", "L2")
    topo.add_link("T2", "L1")
    if complete:
        topo.add_link("T2", "L2")
    return topo


def test_incomplete_bipartite_pod_refused():
    topo = _bipartite_pod(complete=False)
    assert certify(topo, UpDownElpProvider()) is None


def test_spine_shared_between_colors_refused():
    """Leaves with distinct spine neighborhoods must not share a spine:
    cross-color paths exist that per-color enumeration would miss."""
    topo = _bipartite_pod(complete=True)
    topo.add_switch("S1", layer=2)
    topo.add_switch("S2", layer=2)
    topo.add_link("L1", "S1")
    topo.add_link("L2", "S1")  # S1 in both colors...
    topo.add_link("L2", "S2")  # ...but L2's color is {S1, S2}
    assert certify(topo, UpDownElpProvider()) is None


# ----------------------------------------------------------------------
# Certificate accessors on accepted fabrics
# ----------------------------------------------------------------------
def test_uplinkless_pod_certifies_with_no_spine_groups():
    topo = _bipartite_pod(complete=True)
    cert = certify(topo, UpDownElpProvider())
    assert cert is not None
    assert cert.spine_groups == ()
    # T1 -> L1/L2 -> T2 and back.
    assert cert.path_count() == 4


def test_closed_form_matches_provider_pair_by_pair():
    topo = clos3(SMALL)
    provider = UpDownElpProvider()
    cert = certify(topo, provider)
    assert cert is not None
    tors = sorted(topo.switches_at_layer(0))
    total = 0
    for src in tors:
        for dst in tors:
            if src != dst:
                total += len(provider.pair_paths(topo, src, dst))
    assert cert.path_count() == total

