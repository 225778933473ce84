"""Pipeline perf — symmetry-aware planning at hyperscale.

The paper argues Tagger is deployable because tag computation is an
offline, per-topology cost (§7); this suite pins that cost at the
scales operators actually run. Symmetry-aware enumeration
(:mod:`repro.core.symmetry`) certifies a pod-regular Clos in O(links)
and builds the Algorithm-1 graph from the closed form, so from-scratch
planning time stops tracking the ELP path count:

- fat-tree 1024 — 1024 ToRs (32 pods x 32 ToRs), ~65M ELP paths,
  planned from scratch in single-digit seconds. The acceptance bar
  (10 s wall) is asserted, not just reported.
- fat-tree 256 — the 256-ToR CI smoke scale.
- clos64 walked — the 64-ToR benchmark Clos through a provider
  ``certify`` refuses (an ``UpDownElpProvider`` subclass), so every
  pair is enumerated: the honest per-pair baseline the speedup is
  measured against. The certified ELP stage must beat it by >= 10x,
  asserted in-run so the comparison never depends on another machine's
  clock, and the certified tables must equal Algorithm 1's on the
  explicit ELP byte for byte.

The wall-clock table is printed, not persisted; the recorded per-stage
timings of the 1024-ToR plan are the ``core.plan.*_s`` readings of the
``scaleplan-fattree1024`` workload in the e2e ledger
(``benchmarks/e2e``).
"""

from conftest import CLOS64, format_table, show
from repro.core import (
    TaggerPlan,
    UpDownElpProvider,
    tables_equal,
)
from repro.perf import StageTimer
from repro.topology import ClosParams, clos3

#: 1024 ToRs, no hosts (hosts do not affect tagging, only build time).
FATTREE1024 = ClosParams(
    num_pods=32, tors_per_pod=32, leaves_per_pod=4, num_spines=4,
    hosts_per_tor=0,
)

#: 256 ToRs: the scale the CI plan-scale smoke job exercises.
FATTREE256 = ClosParams(
    num_pods=16, tors_per_pod=16, leaves_per_pod=4, num_spines=4,
    hosts_per_tor=0,
)

#: Acceptance bars.
FATTREE1024_WALL_CEILING = 10.0
ELP_SPEEDUP_FLOOR = 10.0


class _Walked(UpDownElpProvider):
    """The up-down ELP, which ``certify`` refuses by contract."""


def _scratch(params, provider=UpDownElpProvider):
    topo = clos3(params)
    timer = StageTimer()
    plan = TaggerPlan.from_provider(topo, provider(), timer=timer)
    return topo, plan, timer


def run_scale_sweep():
    ft1024 = _scratch(FATTREE1024)
    ft256 = _scratch(FATTREE256)
    sym64 = _scratch(CLOS64)
    exh64 = _scratch(CLOS64, provider=_Walked)
    return ft1024, ft256, sym64, exh64


def test_plan_scale_symmetry():
    ft1024, ft256, sym64, exh64 = run_scale_sweep()

    def total(case):
        return sum(case[2].timings().values())

    sym_elp = sym64[2].timings().get("elp", 0.0)
    sym_elp += sym64[2].timings().get("certify", 0.0)
    exh_elp = exh64[2].timings()["elp"]
    cases = (
        ("fat-tree 1024 ToRs", ft1024),
        ("fat-tree 256 ToRs", ft256),
        ("clos64 certified", sym64),
        ("clos64 walked", exh64),
    )
    rows = [
        (name, f"{len(case[0].switches)}",
         f"{case[1].meta['elp_paths']:,}",
         "closed form" if case[1].meta["certified"] else "walk",
         f"{total(case) * 1000.0:.0f}")
        for name, case in cases
    ]
    table = format_table(
        ["Fabric", "Switches", "ELP paths", "Enumeration", "Wall ms"], rows
    )
    table += (
        f"\n\nclos64 enumeration: certify+elp "
        f"{sym_elp * 1000.0:.1f}ms (certified) vs "
        f"{exh_elp * 1000.0:.0f}ms (walked) = "
        f"{exh_elp / max(sym_elp, 1e-9):.0f}x"
    )
    for name, case in cases:
        table += f"\n{name}: {case[2]!r}"
    show("plan_scale", table)

    for _, plan, _ in (ft1024, ft256, sym64):
        assert plan.meta["certified"] is True
    assert exh64[1].meta["certified"] is False
    assert [case[1].meta["elp_paths"] for _, case in cases] == [
        65_138_688, 3_947_520, 231_168, 231_168,
    ]

    assert total(ft1024) <= FATTREE1024_WALL_CEILING, (
        f"1024-ToR fat-tree scratch plan took {total(ft1024):.1f}s; "
        f"ceiling is {FATTREE1024_WALL_CEILING}s"
    )
    # The speedup claim is measured in-run against the per-pair
    # baseline, so a slow machine cannot fake a pass or force a failure.
    assert sym_elp * ELP_SPEEDUP_FLOOR <= exh_elp, (
        f"certified enumeration (certify+elp {sym_elp * 1000.0:.1f}ms) is "
        f"not {ELP_SPEEDUP_FLOOR}x faster than the per-pair walk "
        f"({exh_elp * 1000.0:.0f}ms)"
    )
    topo = sym64[0]
    reference = TaggerPlan.from_elp(topo, UpDownElpProvider().build(topo))
    assert tables_equal(sym64[1].tables, reference.tables), (
        "certified plan diverged from Algorithm 1 on the explicit ELP at clos64"
    )
    assert sym64[1].graph == reference.graph
