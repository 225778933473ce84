"""Property tests: incremental re-planning ≡ from-scratch planning.

The :class:`~repro.core.replan.IncrementalPlanner` promises that after
any sequence of topology deltas its plan is *certifiably equivalent* to
rebuilding from scratch — byte-identical rule tables, identical tagged
graph and queue map. Two layers enforce that here:

- hypothesis: random Clos/Jellyfish fabrics under random churn
  sequences (link down/up, drains, ELP path pins), equivalence checked
  after every single delta;
- hypothesis: a provider's one-call ``rederive_pairs`` — the lost-link
  filter and the shared up-DAGs — equals per-pair ``pair_paths`` on the
  post-delta topology, tuple for tuple, on Clos and fat-tree fabrics
  with and without ToR-ToR express links, both ``shortest_only`` modes,
  explicit endpoint subsets and deltas that partition pairs; the
  planner driven over the same sequences equals ``scratch_plan()``;
- a fixed-seed acceptance sweep: 200 randomized delta sequences whose
  resulting plans must also pass the deployment linter with zero
  errors.

The same oracle runs continuously inside the fuzz harness as the
``incremental-divergence`` invariant (:mod:`repro.fuzz.crosscheck`).
"""

from typing import List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    IncrementalPlanner,
    ReplanResult,
    ShortestPathElpProvider,
    UpDownElpProvider,
    tables_equal,
)
from repro.exceptions import TaggingError
from repro.lint import DeploymentArtifact, lint_artifact
from repro.topology import (
    ClosParams,
    TopologyDelta,
    add_express_link,
    apply_delta,
    clos3,
    fattree,
    jellyfish,
    random_delta_sequence,
    switch_links,
)
from repro.topology.failures import DRAIN, LINK_DOWN

from .test_symmetry_equivalence import Walked, clos_params

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_equivalent(planner: IncrementalPlanner, label: str) -> None:
    """The incremental plan must be indistinguishable from a rebuild,
    and its ELP from the provider's fresh one: ``scratch_plan`` reads no
    planner cache, so a stale pair shows on both counts."""
    fresh = planner.provider.build(planner.topo).paths + planner._extras
    assert planner.elp_paths() == fresh, (
        f"{label}: pair cache diverged from the provider's ELP"
    )
    scratch = planner.scratch_plan()
    plan = planner.plan
    assert tables_equal(plan.tables, scratch.tables), (
        f"{label}: rule tables diverged from from-scratch"
    )
    assert plan.graph == scratch.graph, (
        f"{label}: tagged graph diverged from from-scratch"
    )
    assert plan.queue_map == scratch.queue_map, (
        f"{label}: queue map diverged from from-scratch"
    )
    assert plan.description == scratch.description, (
        f"{label}: description diverged from from-scratch"
    )


def assert_pair_masks_exact(planner: IncrementalPlanner, label: str) -> None:
    """Each pair's link mask decodes to exactly the links its current
    paths use, and a pair with no paths has no mask: a stale bit would
    dirty pairs a delta cannot change, a missing one would keep a pair
    that lost a path clean."""
    links = sorted(planner.topo.links)
    assert planner._pair_links.keys() == planner._pairs.keys(), (
        f"{label}: masks and pairs disagree on which pairs hold paths"
    )
    for pair, paths in planner._pairs.items():
        assert paths, f"{label}: {pair} is cached with no paths"
        mask = planner._pair_links[pair]
        decoded = {link for i, link in enumerate(links) if mask >> i & 1}
        assert mask >> len(links) == 0 and decoded == {
            (min(a, b), max(a, b)) for path in paths for a, b in zip(path, path[1:])
        }, f"{label}: link mask of {pair} is stale"


def drive(
    planner: IncrementalPlanner, deltas, label: str = ""
) -> List[Optional[ReplanResult]]:
    """Apply deltas in order, checking equivalence after every one, and
    return each delta's result (None where the planner refused it).

    The planner may refuse a delta that empties the ELP; that refusal is
    legitimate only when the ELP really is empty, and the planner must
    keep absorbing later deltas (recovery).
    """
    results: List[Optional[ReplanResult]] = []
    for i, delta in enumerate(deltas):
        step = f"{label}step {i} ({delta.describe()})"
        try:
            results.append(planner.apply(delta))
        except TaggingError:
            assert not planner.elp_paths(), (
                f"{step}: refused to plan a non-empty ELP"
            )
            assert_pair_masks_exact(planner, step)
            results.append(None)
            continue
        assert_equivalent(planner, step)
        assert_pair_masks_exact(planner, step)
    return results


# ----------------------------------------------------------------------
# Hypothesis: random fabrics under random churn
# ----------------------------------------------------------------------
@st.composite
def clos_churn(draw):
    params = ClosParams(
        num_pods=draw(st.integers(min_value=1, max_value=3)),
        tors_per_pod=draw(st.integers(min_value=2, max_value=3)),
        leaves_per_pod=draw(st.integers(min_value=1, max_value=2)),
        num_spines=draw(st.integers(min_value=1, max_value=2)),
        hosts_per_tor=draw(st.integers(min_value=0, max_value=1)),
    )
    topo = clos3(params)
    seed = draw(st.integers(min_value=0, max_value=2**20))
    length = draw(st.integers(min_value=1, max_value=8))
    return topo, random_delta_sequence(topo, length, seed)


@st.composite
def jellyfish_churn(draw):
    num_switches = draw(st.integers(min_value=4, max_value=8))
    network_ports = draw(
        st.integers(min_value=2, max_value=min(3, num_switches - 1))
    )
    if (num_switches * network_ports) % 2 != 0:
        num_switches += 1
    topo = jellyfish(
        num_switches=num_switches,
        ports_per_switch=network_ports + 1,
        network_ports=network_ports,
        hosts_per_switch=draw(st.integers(min_value=0, max_value=1)),
        seed=draw(st.integers(min_value=0, max_value=2**20)),
    )
    seed = draw(st.integers(min_value=0, max_value=2**20))
    length = draw(st.integers(min_value=1, max_value=6))
    per_pair = draw(st.integers(min_value=1, max_value=2))
    return topo, random_delta_sequence(topo, length, seed), per_pair


@given(clos_churn())
@SETTINGS
def test_clos_updown_churn_matches_scratch(data):
    topo, deltas = data
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    assert_equivalent(planner, "initial build")
    drive(planner, deltas)


@given(jellyfish_churn())
@SETTINGS
def test_jellyfish_shortest_churn_matches_scratch(data):
    topo, deltas, per_pair = data
    planner = IncrementalPlanner(
        topo, ShortestPathElpProvider(per_pair=per_pair)
    )
    assert_equivalent(planner, "initial build")
    drive(planner, deltas)


@given(st.data())
@SETTINGS
def test_path_pins_interleaved_with_churn(data):
    topo = clos3(ClosParams(num_pods=2, tors_per_pod=2, leaves_per_pod=1,
                            num_spines=2, hosts_per_tor=1))
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    pins = data.draw(
        st.lists(
            st.sampled_from(sorted(planner.elp_paths())),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    churn = random_delta_sequence(
        topo, 2, data.draw(st.integers(min_value=0, max_value=2**20))
    )
    deltas = [TopologyDelta.add_paths(pins)]
    deltas.extend(churn)
    deltas.append(TopologyDelta.remove_paths(pins))
    drive(planner, deltas, "pins ")


@given(
    clos_params(),
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
)
@SETTINGS
def test_certified_init_matches_exhaustive_init(params, seed, length, pin):
    """A certified init seeds its refcounts from the certificate's closed
    form; it must leave the warm state an uncertified init walks path by
    path, and both planners must then answer the same deltas alike."""
    probe = clos3(params)
    provider = UpDownElpProvider()
    all_paths = sorted(
        path
        for pair in provider.ordered_pairs(probe)
        for path in provider.pair_paths(probe, *pair)
    )
    if not all_paths:
        return
    extras = (all_paths[seed % len(all_paths)],) if pin else ()
    seeded, walked = (
        IncrementalPlanner(clos3(params), source, extra_paths=extras)
        for source in (UpDownElpProvider(), Walked())
    )
    label = f"clos {params} extras={len(extras)}: "
    assert seeded.plan.meta["certified"] is True, f"{label}not seeded"
    assert walked.plan.meta["certified"] is False, f"{label}not walked"
    assert seeded._brute.counts_snapshot() == walked._brute.counts_snapshot(), (
        f"{label}seeded refcounts diverged from the per-path walk"
    )
    assert seeded._pairs == walked._pairs, f"{label}pair cache diverged"
    assert seeded._pair_links == walked._pair_links, f"{label}masks diverged"
    assert_pair_masks_exact(seeded, label)
    assert tables_equal(seeded.plan.tables, walked.plan.tables), label
    assert seeded.plan.graph == walked.plan.graph, label
    assert seeded.plan.queue_map == walked.plan.queue_map, label
    assert seeded.plan.meta["elp_paths"] == walked.plan.meta["elp_paths"]

    deltas = random_delta_sequence(probe, length, seed)
    got = drive(seeded, deltas, f"{label}seeded ")
    want = drive(walked, deltas, f"{label}walked ")
    for i, (a, b) in enumerate(zip(got, want)):
        step = f"{label}step {i} ({deltas[i].describe()})"
        assert (a is None) == (b is None), f"{step}: only one refused"
        if a is None:
            continue
        assert (a.mode, a.diffs, a.dirty_pairs, a.changed_paths) == (
            b.mode,
            b.diffs,
            b.dirty_pairs,
            b.changed_paths,
        ), f"{step}: seeded and walked planners replanned differently"


# ----------------------------------------------------------------------
# Hypothesis: one rederive_pairs call == per-pair enumeration
# ----------------------------------------------------------------------
REDERIVE_SETTINGS = settings(
    max_examples=min(25, settings.default.max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def layered_churn(draw):
    """A Clos or fat-tree fabric, maybe with ToR-ToR express links, an
    up-down provider over all ToRs or a subset, and a churn sequence
    that may end by cutting one ToR off and bringing it back."""
    if draw(st.booleans()):
        topo = clos3(
            ClosParams(
                num_pods=draw(st.integers(min_value=1, max_value=3)),
                tors_per_pod=draw(st.integers(min_value=2, max_value=3)),
                leaves_per_pod=draw(st.integers(min_value=1, max_value=2)),
                num_spines=draw(st.integers(min_value=1, max_value=2)),
                hosts_per_tor=draw(st.integers(min_value=0, max_value=1)),
            )
        )
    else:
        topo = fattree(
            draw(st.sampled_from([2, 4])),
            hosts_per_edge=draw(st.integers(min_value=0, max_value=1)),
        )
    tors = sorted(topo.switches_at_layer(0))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = draw(st.permutations(tors))[:2]
        if not topo.has_link(a, b):
            add_express_link(topo, a, b)
    endpoints = None
    if draw(st.booleans()):
        endpoints = sorted(
            draw(st.lists(st.sampled_from(tors), min_size=2, unique=True))
        )
    provider = UpDownElpProvider(
        explicit_endpoints=endpoints, shortest_only=draw(st.booleans())
    )
    deltas = random_delta_sequence(
        topo,
        draw(st.integers(min_value=1, max_value=6)),
        draw(st.integers(min_value=0, max_value=2**20)),
    )
    if draw(st.booleans()):
        # Partition: fail every uplink of one ToR, then restore them.
        links = switch_links(topo, draw(st.sampled_from(tors)))
        deltas += [TopologyDelta.link_down(*link) for link in links]
        deltas += [TopologyDelta.link_up(*link) for link in links]
    return topo, provider, deltas


def assert_rederive_matches_pair_paths(topo, provider, deltas):
    pairs = provider.ordered_pairs(topo)
    current = {pair: provider.pair_paths(topo, *pair) for pair in pairs}
    for delta in deltas:
        touched = apply_delta(topo, delta)
        removed = (
            set(touched) if delta.kind in (LINK_DOWN, DRAIN) else set()
        )
        want = {pair: provider.pair_paths(topo, *pair) for pair in pairs}
        got = provider.rederive_pairs(topo, current, removed)
        assert got == want, delta.describe()
        assert list(got) == pairs
        current = want


@given(layered_churn())
@REDERIVE_SETTINGS
def test_updown_rederive_equals_pair_paths(data):
    topo, provider, deltas = data
    assert_rederive_matches_pair_paths(topo, provider, deltas)


@given(layered_churn(), st.integers(min_value=1, max_value=2))
@REDERIVE_SETTINGS
def test_shortest_rederive_equals_pair_paths(data, per_pair):
    topo, _, deltas = data
    provider = ShortestPathElpProvider(per_pair=per_pair)
    assert_rederive_matches_pair_paths(topo, provider, deltas)


@given(layered_churn())
@REDERIVE_SETTINGS
def test_layered_churn_matches_scratch(data):
    topo, provider, deltas = data
    planner = IncrementalPlanner(topo, provider)
    assert_equivalent(planner, "initial build")
    drive(planner, deltas)


# ----------------------------------------------------------------------
# Acceptance sweep: 200 randomized delta sequences, lint-clean plans
# ----------------------------------------------------------------------
def _recipes():
    """Small, cheap fabrics rotated through the acceptance sweep."""
    return (
        lambda: (
            clos3(ClosParams(num_pods=2, tors_per_pod=2, leaves_per_pod=1,
                             num_spines=2, hosts_per_tor=1)),
            UpDownElpProvider(),
        ),
        lambda: (
            clos3(ClosParams(num_pods=1, tors_per_pod=3, leaves_per_pod=2,
                             num_spines=1, hosts_per_tor=1)),
            UpDownElpProvider(),
        ),
        lambda: (
            jellyfish(num_switches=6, ports_per_switch=4, network_ports=3,
                      hosts_per_switch=1, seed=13),
            ShortestPathElpProvider(),
        ),
        lambda: (
            jellyfish(num_switches=8, ports_per_switch=3, network_ports=2,
                      hosts_per_switch=0, seed=29),
            ShortestPathElpProvider(per_pair=2),
        ),
    )


def _assert_lint_clean(planner: IncrementalPlanner, label: str) -> None:
    plan = planner.plan
    artifact = DeploymentArtifact(
        topo=plan.topo, tables=plan.tables, queue_map=plan.queue_map
    )
    report = lint_artifact(artifact)
    assert not report.errors, (
        f"{label}: lint errors on incremental plan: "
        f"{[d.render() for d in report.errors[:3]]}"
    )


@pytest.mark.parametrize("chunk", range(10))
def test_acceptance_200_randomized_sequences(chunk):
    """ISSUE acceptance: 200 randomized delta sequences, each step's
    incremental plan byte-identical to from-scratch, final plan linting
    with zero errors. Split into 10 chunks of 20 sequences."""
    recipes = _recipes()
    for i in range(20):
        sequence_id = chunk * 20 + i
        topo, provider = recipes[sequence_id % len(recipes)]()
        planner = IncrementalPlanner(topo, provider)
        deltas = random_delta_sequence(topo, 3, seed=1000 + sequence_id)
        drive(planner, deltas, f"seq {sequence_id} ")
        _assert_lint_clean(planner, f"seq {sequence_id}")
