"""Rollout perf — what a certified fleet-wide deployment costs.

The transitional-safety verifier is where a rollout's wall time goes
before the first RPC (one union-graph verification plus ``W+1`` wave
boundary verdicts from per-switch lint sections), so this benchmark
pins its stage timings next to the
planner's: a leaf-spine link-down is re-planned incrementally, then the
resulting diff is rolled onto a fault-free agent fleet. The fault-free
run's stage split (``plan-waves`` / ``certify`` / ``execute`` /
``verify-final``) is printed, not persisted — the recorded readings are
the ``deploy.*_s`` metrics of the e2e ledger (``benchmarks/e2e``):

- a 16-ToR Clos (26 switches), plus a sweep through seeded chaos
  schedules;
- a 64-ToR Clos (100 switches, the e2e churn fabric) where the flap
  touches 2 switches. The small fabric hides what certification
  costs per switch; this one asserts in-run that the rollout's three
  boundary verdicts, its one fabric-wide lint (the final readback) and
  the union-graph work cost less than *three* one-shot lints of the
  same fabric — i.e. that one rollout builds each per-switch section
  once and lints the whole fabric once.
"""

import time

from conftest import CLOS64, format_table, show
from repro.core import IncrementalPlanner, UpDownElpProvider, diff_tables
from repro.deploy import (
    SAFE_OUTCOMES,
    random_fault_plan,
    run_rollout,
    transition_queue_map,
)
from repro.lint import lint_tables
from repro.topology import ClosParams, TopologyDelta, clos3

#: 4 pods x 4 ToRs = 16 ToRs; 26 switches. Big enough that certify
#: dominates execute, small enough to stay a sub-second benchmark.
CLOS16 = ClosParams(
    num_pods=4,
    tors_per_pod=4,
    leaves_per_pod=2,
    num_spines=2,
    hosts_per_tor=1,
)

FLAP = ("L1", "S1")
CHAOS_RUNS = 40
#: Fault-free rollouts (and one-shot lints) timed per entry; the fastest
#: of each is compared, which is what makes the in-run bound noise-proof.
REPEATS = 3


def build_transition(params=CLOS16):
    topo = clos3(params)
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    old = {
        switch: table.__class__(
            switch=switch, rules=dict(table.rules), policy=table.policy
        )
        for switch, table in planner.plan.tables.items()
    }
    planner.apply(TopologyDelta.link_down(*FLAP))
    return planner.topo, old, dict(planner.plan.tables)


def assert_linkflap_shape(diffs, clean):
    """One leaf-spine flap is the same rollout on either fabric."""
    assert len(diffs) == 2
    assert len(clean.waves) == 2
    assert clean.rpc_count == 4
    assert clean.certificate.states_covered == 4


def test_deploy_rollout_baseline():
    topo, old, new = build_transition()
    diffs = diff_tables(old, new)

    clean = run_rollout(topo, old, new)
    assert clean.outcome == "converged", clean.detail
    assert clean.final_lint_ok and clean.final_matches_target
    assert len(topo.switches) == 26
    assert_linkflap_shape(diffs, clean)

    start = time.perf_counter()
    outcomes = {}
    for index in range(CHAOS_RUNS):
        faults = random_fault_plan(
            sorted(diffs), seed=index, rate=0.35, stuck_prob=0.1
        )
        result = run_rollout(topo, old, new, faults=faults)
        assert result.outcome in SAFE_OUTCOMES, result.detail
        assert result.final_lint_ok
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
    chaos_seconds = time.perf_counter() - start

    rows = [
        (stage, f"{seconds * 1000.0:.2f}")
        for stage, seconds in clean.timings.items()
    ]
    rows.append(("chaos sweep (per run)",
                 f"{chaos_seconds / CHAOS_RUNS * 1000.0:.2f}"))
    show(
        "deploy_rollout",
        format_table(("stage", "ms"), rows)
        + f"\nchaos outcomes over {CHAOS_RUNS} seeded schedules: "
        + ", ".join(f"{k}: {v}" for k, v in sorted(outcomes.items())),
    )


def test_deploy_clos64_linkflap():
    topo, old, new = build_transition(CLOS64)
    diffs = diff_tables(old, new)
    assert len(topo.switches) == 100

    def lints_seconds(rollout):
        return rollout.timings["certify"] + rollout.timings["verify-final"]

    rollouts = [run_rollout(topo, old, new) for _ in range(REPEATS)]
    for rollout in rollouts:
        assert rollout.outcome == "converged", rollout.detail
        assert rollout.final_lint_ok and rollout.final_matches_target
    clean = min(rollouts, key=lints_seconds)

    queue_map = transition_queue_map(old, new)
    one_shot = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        assert lint_tables(topo, new, queue_map).ok
        one_shot.append(time.perf_counter() - start)

    # Two waves: three boundary verdicts and the final readback lint
    # must cost less than three cold lints.
    assert_linkflap_shape(diffs, clean)
    assert lints_seconds(clean) < 3 * min(one_shot), (
        f"certify + verify-final took {lints_seconds(clean) * 1000.0:.1f} ms, "
        f"three one-shot lints take {3 * min(one_shot) * 1000.0:.1f} ms"
    )

    rows = [
        (stage, f"{seconds * 1000.0:.2f}")
        for stage, seconds in clean.timings.items()
    ]
    rows.append(("one-shot lint_tables", f"{min(one_shot) * 1000.0:.2f}"))
    show("deploy_rollout_clos64", format_table(("stage", "ms"), rows))
