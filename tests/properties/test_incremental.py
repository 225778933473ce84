"""Property tests: incremental re-planning ≡ from-scratch planning.

The :class:`~repro.core.replan.IncrementalPlanner` promises that after
any sequence of topology deltas its plan is *certifiably equivalent* to
rebuilding from scratch — byte-identical rule tables, identical tagged
graph and queue map. Two layers enforce that here:

- hypothesis: random Clos/Jellyfish fabrics under random churn
  sequences (link down/up, drains, ELP path pins), equivalence checked
  after every single delta;
- hypothesis: Clos and fat-tree fabrics with and without ToR-ToR
  express links, explicit endpoint subsets and deltas that partition
  pairs, driven through the planner and checked against
  ``scratch_plan()``;
- hypothesis: a certified planner and a walked one (same ELP, a
  provider :func:`~repro.core.symmetry.certify` refuses) answer the same
  deltas with the same plans and diffs;
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
    clos3,
    fattree,
    jellyfish,
    random_delta_sequence,
    switch_links,
)

from .test_symmetry_equivalence import Walked, clos_params

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_equivalent(planner: IncrementalPlanner, label: str) -> None:
    """The incremental plan must be indistinguishable from a rebuild:
    ``scratch_plan`` runs Algorithm 1 on the provider's fresh ELP, so a
    wrong residue shows here, and the plan's path count must be that
    ELP's length."""
    scratch = planner.scratch_plan()
    plan = planner.plan
    fresh = len(planner.provider.build(planner.topo)) + len(planner._extras)
    assert plan.meta["elp_paths"] == fresh, (
        f"{label}: path count diverged from the provider's ELP"
    )
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
            fresh = planner.provider.build(planner.topo).paths
            assert not fresh + planner._extras, (
                f"{step}: refused to plan a non-empty ELP"
            )
            results.append(None)
            continue
        assert_equivalent(planner, step)
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
            st.sampled_from(sorted(planner.provider.build(topo).paths)),
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
    """A certified planner builds from the certificate's closed form and
    corrects it for the residue of each delta; a walked one enumerates
    every path. Both must plan alike from init on and answer the same
    deltas with the same plans and diffs."""
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
        assert a.diffs == b.diffs, (
            f"{step}: seeded and walked planners replanned differently"
        )
        assert a.plan.meta["elp_paths"] == b.plan.meta["elp_paths"], step
        assert (a.mode, b.mode) in {
            ("noop", "noop"),
            ("incremental", "full"),
        }, step


# ----------------------------------------------------------------------
# Hypothesis: layered fabrics, endpoint subsets and partitions
# ----------------------------------------------------------------------
LAYERED_SETTINGS = settings(
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
    provider = UpDownElpProvider(explicit_endpoints=endpoints)
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


@given(layered_churn())
@LAYERED_SETTINGS
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
