"""Cost guard for one link flap, as call counts.

A flap must cost what it changes. Two counts say so without a clock:

- the re-planner builds at most one up-DAG (``_up_paths_from``) per ELP
  endpoint per ``apply``, however many dirty pairs the delta has — pairs
  that lost a link keep their surviving paths, and the rest share the
  endpoints' DAGs;
- a rollout's certificate runs no fabric-wide lint stage (``check_graph``,
  ``check_reachability``): its boundary verdicts come from per-switch
  sections, and the one full lint of a rollout is ``verify-final``.

Counts come from ``cProfile`` and are deterministic, in the pattern of
``tests/obs/test_emit_cost.py``.
"""

import cProfile
import os
import pstats

from repro.core import IncrementalPlanner, UpDownElpProvider, diff_tables
from repro.deploy import certify_rollout, plan_waves, run_rollout
from repro.lint import LintSections
from repro.topology import ClosParams, TopologyDelta, clos3

#: 3 pods x 3 ToRs: 9 endpoints, 72 ordered pairs.
PARAMS = ClosParams(3, 3, 2, 2, hosts_per_tor=1)
#: One flap episode of the e2e churn workload, plus a drain cycle.
DELTAS = (
    TopologyDelta.link_down("L1", "T1"),
    TopologyDelta.link_down("L3", "S1"),
    TopologyDelta.link_up("L1", "T1"),
    TopologyDelta.link_up("L3", "S1"),
    TopologyDelta.drain("L4"),
    TopologyDelta.undrain("L4"),
)


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
