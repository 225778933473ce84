"""Cost guard for one link flap, as counts.

A flap must cost what it changes. Four counts say so without a clock:

- the re-planner builds at most one up-DAG (``_up_paths_from``) per ELP
  endpoint per ``apply``, however many residue pairs the delta has —
  pairs that lost a link keep their surviving pristine paths, and the
  rest share the endpoints' DAGs in one batched enumeration;
- a certified replan reads link liveness, not paths: it walks
  (``tagged_walk``) only the damaged paths of its cut pairs (residue
  pairs left with no pristine path), so a flap that cuts no pair walks
  nothing and reads no pair's pristine paths;
- a rollout's certificate runs no fabric-wide lint stage (``check_graph``,
  ``check_reachability``): its boundary verdicts come from per-switch
  sections, and the one full lint of a rollout is ``verify-final``;
- the planner keeps no warm state: between deltas it holds its inputs,
  its current plan and the pinned extras, and nothing else the cyclic
  collector must walk.

A cold start costs the structure, not the path count: a planner built
on a certified fabric builds its graph from the certificate's closed
form and walks no ELP path — only its pinned extras — while an
uncertified one still walks every path.

Call counts come from ``cProfile``, references from ``gc.get_referents``
after full collections; both are deterministic, in the pattern of
``tests/obs/test_emit_cost.py``.
"""

import cProfile
import gc
import os
import pstats

from repro.core import (
    IncrementalPlanner,
    UpDownElpProvider,
    diff_tables,
)
from repro.deploy import certify_rollout, plan_waves, run_rollout
from repro.lint import LintSections
from repro.topology import ClosParams, TopologyDelta, clos3

from ..properties.test_symmetry_equivalence import Walked

#: 3 pods x 3 ToRs: 9 endpoints, 72 ordered pairs.
PARAMS = ClosParams(3, 3, 2, 2, hosts_per_tor=1)
#: One flap episode of the e2e churn workload, plus a leaf and a ToR
#: drain cycle; the ToR drain leaves pairs with no surviving path, so
#: the residue is enumerated again.
DELTAS = (
    TopologyDelta.link_down("L1", "T1"),
    TopologyDelta.link_down("L3", "S1"),
    TopologyDelta.link_up("L1", "T1"),
    TopologyDelta.link_up("L3", "S1"),
    TopologyDelta.drain("L4"),
    TopologyDelta.undrain("L4"),
    TopologyDelta.drain("T1"),
    TopologyDelta.undrain("T1"),
)
#: Two ToR uplink failures that leave (T2, T3) no shared leaf: the pair
#: is cut and climbs to a spine, so the second delta walks its paths.
CUT_DELTAS = (
    TopologyDelta.link_down("L1", "T2"),
    TopologyDelta.link_down("L2", "T3"),
)
#: Ceiling on the references the collector walks in what the planner
#: holds besides its inputs and current plan, after init plus
#: ``DELTAS``. With no warm state it reads 0; the pair cache, link
#: masks and plan memo it replaced read 140, and a link -> pairs index
#: copied into every memo entry read 6 310.
MAX_WARM_STATE_REFERENCES = 50


def _calls(profile, module, function):
    """Calls ``profile`` saw to ``function`` of ``repro/<module>.py``."""
    suffix = os.path.join("repro", *module.split("/")) + ".py"
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    return sum(
        ncalls
        for (filename, _line, name), (_cc, ncalls, *_rest) in stats.items()
        if name == function and filename.endswith(suffix)
    )


def _profiled(run):
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run()
    finally:
        profile.disable()
    return result, profile


def test_up_dags_per_apply_stay_within_the_endpoints():
    topo = clos3(PARAMS)
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    endpoints = len(planner.provider.endpoints(topo))
    built = []
    for delta in DELTAS:
        result, profile = _profiled(lambda: planner.apply(delta))
        dags = _calls(profile, "routing/updown", "_up_paths_from")
        assert dags <= endpoints, (
            f"{delta.describe()}: {dags} up-DAGs for {result.dirty_pairs} "
            f"dirty pairs and {endpoints} endpoints"
        )
        built.append(dags)
    assert any(built), "no delta enumerated anything; the guard is vacuous"


def _collector_references(roots):
    """References the cyclic collector walks in what ``roots`` reach:
    ``len(gc.get_referents(o))`` summed over the GC-tracked objects among
    them, once full collections have untracked all they can.

    A collection untracks a tuple or dict only if its contents are
    untracked already, and it may visit a container before its contents,
    so one collection per nesting level can be needed: collect until the
    count stops moving."""
    previous = None
    while True:
        gc.collect()
        seen = set()
        total = 0
        stack = list(roots)
        while stack:
            obj = stack.pop()
            if id(obj) in seen or not gc.is_tracked(obj):
                continue
            seen.add(id(obj))
            referents = gc.get_referents(obj)
            total += len(referents)
            stack.extend(referents)
        if total == previous:
            return total
        previous = total


def test_warm_state_stays_out_of_the_collector():
    topo = clos3(PARAMS)
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    for delta in DELTAS:
        planner.apply(delta)
    inputs = {"topo", "provider", "telemetry", "_plan"}
    roots = [
        value for name, value in vars(planner).items() if name not in inputs
    ]
    references = _collector_references(roots)
    assert references <= MAX_WARM_STATE_REFERENCES, (
        f"{references} collector-visible references in the planner's "
        f"state between deltas (ceiling {MAX_WARM_STATE_REFERENCES})"
    )


def test_certified_replan_walks_only_its_cut_pairs():
    topo = clos3(PARAMS)
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    elp = planner.plan.meta["elp_paths"]
    walked = {}
    for delta in DELTAS + CUT_DELTAS:
        result, profile = _profiled(lambda: planner.apply(delta))
        walks = _calls(profile, "core/tags", "tagged_walk")
        label = delta.describe()
        assert result.mode == "incremental", label
        assert walks == result.changed_paths < elp, label
        if delta.kind in ("link-down", "link-up"):
            assert _calls(profile, "core/elp", "pair_paths") == 0, label
        walked[label] = walks
    # No link flap of the churn episode cuts a pair, and neither does
    # the ToR drain: its cut pairs are enumerated (up-DAGs above) but
    # have no path left to walk.
    assert not any(walked[delta.describe()] for delta in DELTAS), walked
    assert walked[CUT_DELTAS[-1].describe()] > 0, walked


def test_rollout_lints_the_fabric_once():
    topo = clos3(PARAMS)
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    old = planner.plan.tables
    new = planner.apply(TopologyDelta.link_down("L3", "S1")).plan.tables
    waves = plan_waves(topo, diff_tables(old, new), 1)
    assert len(waves) > 1

    cert, profile = _profiled(
        lambda: certify_rollout(
            topo, old, new, waves, sections=LintSections(topo)
        )
    )
    assert cert.ok
    for module, function in (
        ("lint/graph_checks", "check_graph"),
        ("lint/reach_checks", "check_reachability"),
    ):
        assert _calls(profile, module, function) == 0, function

    report, profile = _profiled(lambda: run_rollout(topo, old, new))
    assert report.converged and report.final_lint_ok
    assert _calls(profile, "lint/linter", "lint_artifact") == 1
    assert _calls(profile, "lint/graph_checks", "check_graph") == 1


def test_certified_init_walks_no_path():
    provider = UpDownElpProvider()
    extra = provider.pair_paths(clos3(PARAMS), "T1", "T4")[0]
    for source, kwargs, certified, walks in (
        (provider, {}, True, 0),
        (provider, {"extra_paths": (extra,)}, True, 1),
        # Each of the 468 ELP paths of PARAMS, walked once.
        (Walked(), {}, False, 468),
    ):
        planner, profile = _profiled(
            lambda: IncrementalPlanner(clos3(PARAMS), source, **kwargs)
        )
        label = (type(source).__name__, kwargs)
        assert planner.plan.meta["certified"] is certified, label
        assert _calls(profile, "core/tags", "tagged_walk") == walks, label
        assert planner.plan.meta["walked_paths"] == walks, label
