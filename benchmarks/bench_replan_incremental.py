"""Pipeline perf — incremental replan vs from-scratch at 64-ToR scale.

The paper's operational premise (§3.2, §6) is that topology churn is
frequent: hundreds of reroute-visible events per day across production
data centers. Tagger only stays practical if reacting to a single link
flap does not cost a full pipeline recompute. This benchmark pins that
claim on a 64-ToR three-layer Clos (8 pods x 8 ToRs, 100 switches,
~230k ELP paths):

1. from-scratch pipeline build (closed-form enumeration -> Algorithm 1
   -> deterministic minimization -> verify -> queue map),
2. incremental replan of a single leaf-spine link-down via
   :class:`repro.core.replan.IncrementalPlanner`: the certificate's
   closed form with its edges filtered by link liveness,
3. the restoring link-up, a certified plan of the pristine fabric.

The acceptance bar — incremental single-link-down at least 5x faster
than walking the same failed state path by path (a provider the
symmetry certificate refuses), with byte-identical rule tables — is
asserted, not just reported. So is the cost of a failure against the
pristine fabric: the link-down may cost at most
:data:`PRISTINE_RATIO_CEILING` times the closed-form scratch plan of
the pristine fabric, timed in the same process. The wall-clock table is printed, not
persisted: the recorded per-stage timings are the ``core.replan.*_s`` /
``core.planner-init_s`` readings of the ``churn-clos64`` workload in the
e2e ledger (``benchmarks/e2e``).
"""

import time

from conftest import CLOS64, format_table, show
from repro.core import (
    IncrementalPlanner,
    TaggerPlan,
    UpDownElpProvider,
    tables_equal,
)
from repro.obs import Telemetry
from repro.perf import StageTimer
from repro.topology import TopologyDelta, clos3

#: The flapped leaf-spine link. Its residue is every cross-pod pair with
#: an endpoint in pod 1 — 896 of 4032 pairs — which is the *hard*
#: locality case; a ToR uplink flap cuts far fewer.
FLAP = ("L1", "S1")
DIRTY_PAIRS = 896

#: A symmetric second flap (same leaf, different spine) used to measure
#: the incremental path with telemetry attached: by symmetry its residue
#: has as many pairs as FLAP's, so its wall time is directly comparable
#: against the same from-scratch oracle.
FLAP_OBSERVED = ("L1", "S2")

SPEEDUP_FLOOR = 5.0

#: Ceiling on the incremental link-down's wall time over the pristine
#: closed-form scratch plan's. A failed link costs an edge filter on
#: that closed form plus a rule diff: 40/32 ms (1.3x) on a 2-core VM;
#: walking each residue pair's pristine paths instead read 82/20 ms
#: (4x) there.
PRISTINE_RATIO_CEILING = 2.5


class Walked(UpDownElpProvider):
    """The up-down ELP through a provider the symmetry certificate
    refuses by contract (a subclass may override ``pair_paths``), so
    ``from_provider`` walks every pair of the failed fabric."""


def run_churn_cycle():
    topo = clos3(CLOS64)

    # From-scratch symmetry-certified build on its own pristine topology:
    # the "cold start" number the scale suite tracks.
    scratch_sym_timer = StageTimer()
    scratch_sym = TaggerPlan.from_provider(
        clos3(CLOS64), UpDownElpProvider(), timer=scratch_sym_timer
    )

    planner = IncrementalPlanner(topo, UpDownElpProvider())
    down = planner.apply(TopologyDelta.link_down(*FLAP))

    # From-scratch per-pair walk of the same failed state, on its own
    # topology instance.
    failed_topo = clos3(CLOS64)
    failed_topo.fail_link(*FLAP)
    t0 = time.perf_counter()
    scratch = TaggerPlan.from_provider(failed_topo, Walked())
    scratch_seconds = time.perf_counter() - t0
    assert scratch.meta["certified"] is False, "the denominator must walk"

    identical = (
        tables_equal(planner.plan.tables, scratch.tables)
        and planner.plan.graph == scratch.graph
    )
    up = planner.apply(TopologyDelta.link_up(*FLAP))

    # Telemetry-enabled incremental replan of the symmetric second flap.
    # Wall time is taken around apply() so it includes the event emit and
    # registry updates that run after the internal stage timer stops.
    telemetry = Telemetry(capacity=100_000)
    planner.telemetry = telemetry
    t0 = time.perf_counter()
    observed = planner.apply(TopologyDelta.link_down(*FLAP_OBSERVED))
    observed_seconds = time.perf_counter() - t0
    planner.telemetry = None

    return (
        planner, down, up, scratch_seconds, identical,
        observed, observed_seconds, telemetry,
        scratch_sym, scratch_sym_timer,
    )


def test_replan_single_link_down_clos64():
    (
        planner, down, up, scratch_seconds, identical,
        observed, observed_seconds, telemetry,
        scratch_sym, scratch_sym_timer,
    ) = run_churn_cycle()

    speedup_down = scratch_seconds / down.total_seconds
    speedup_up = scratch_seconds / up.total_seconds
    speedup_observed = scratch_seconds / observed_seconds

    scratch_sym_seconds = sum(scratch_sym_timer.timings().values())
    rows = [
        ("from-scratch symmetry (pristine)",
         f"{scratch_sym_seconds * 1000.0:.0f}",
         f"{scratch_seconds / scratch_sym_seconds:.1f}x", "-"),
        ("from-scratch walk (failed state)",
         f"{scratch_seconds * 1000.0:.0f}", "1.0x", "-"),
        (f"incremental link-down ({down.mode})",
         f"{down.total_seconds * 1000.0:.0f}",
         f"{speedup_down:.1f}x", down.dirty_pairs),
        (f"restore link-up ({up.mode})",
         f"{up.total_seconds * 1000.0:.0f}",
         f"{speedup_up:.1f}x", up.dirty_pairs),
        (f"incremental link-down + telemetry ({observed.mode})",
         f"{observed_seconds * 1000.0:.0f}",
         f"{speedup_observed:.1f}x", observed.dirty_pairs),
    ]
    table = format_table(
        ["Phase", "Wall ms", "Speedup", "Dirty pairs"], rows
    )
    table += (
        f"\n\nbyte-identical to from-scratch: {identical}"
        f"\nflap: {FLAP[0]}<->{FLAP[1]} on 64-ToR Clos "
        f"({len(planner.topo.switches)} switches, "
        f"{planner.plan.meta['elp_paths']} ELP paths)"
    )
    show("replan_incremental", table)

    assert scratch_sym.meta["certified"] is True, (
        "pristine 64-ToR Clos must take the closed-form symmetry path"
    )
    assert scratch_sym.meta["elp_paths"] == 231_168
    assert identical, "incremental replan diverged from from-scratch"
    assert down.mode == up.mode == "incremental"
    assert down.dirty_pairs == observed.dirty_pairs == DIRTY_PAIRS
    assert speedup_down >= SPEEDUP_FLOOR, (
        f"incremental link-down only {speedup_down:.1f}x faster than "
        f"from-scratch; acceptance floor is {SPEEDUP_FLOOR}x"
    )
    pristine_ratio = down.total_seconds / scratch_sym_seconds
    assert pristine_ratio <= PRISTINE_RATIO_CEILING, (
        f"incremental link-down costs {pristine_ratio:.1f}x the pristine "
        f"closed-form scratch plan; ceiling is {PRISTINE_RATIO_CEILING}x"
    )
    # Observability must stay free: with telemetry attached the
    # (symmetric) incremental replan has to clear the same floor, so the
    # emit/registry hooks cannot eat the acceptance margin.
    assert observed.mode == "incremental"
    assert telemetry.bus.count("replan.apply") == 1
    assert speedup_observed >= SPEEDUP_FLOOR, (
        f"telemetry-enabled incremental link-down only "
        f"{speedup_observed:.1f}x faster than from-scratch; "
        f"instrumentation overhead ate the {SPEEDUP_FLOOR}x floor"
    )
