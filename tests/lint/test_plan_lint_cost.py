"""Cost guard for scratch planning plus lint, as a call count.

A 64-ToR fat-tree is planned with the generic planner and linted under
``cProfile``; the profiled calls are divided by the rules planned. The
count is deterministic, so the guard needs no wall clock: a compile
that goes back through ``as_rules()`` objects, an S104 check that scans
the program once per key, a minimizer that re-resolves its rules
through the wiring, a one-tag ELP that goes back through the per-node
merge, a lint that validates each of a Clos layer's equal tables
again, or a lint that rebuilds the tagged graph of a plan the rank
potential already certifies, fails here before any benchmark sees it.
A second guard lints the hosted 64-ToR Clos ``from_provider`` plan,
whose 7 424 rules sit under 512 dead match states: R201 builds one
finding per state, never one per rule.
"""

import cProfile
import pstats

from repro.core import TaggerPlan, UpDownElpProvider
from repro.lint import lint_plan
from repro.topology import ClosParams, clos3

#: Ceiling on profiled calls per planned rule (plan + lint). With a
#: per-key ``first_match`` scan in S104 and programs compiled through
#: sorted ``MatchActionRule`` objects the count read 55.3; the linear
#: passes read 38.1, then 35.9; linting each distinct table once read
#: 29.7, the minimizer's one-class closed form (no per-node merge on
#: an up-down ELP) read 17.6, a tagged graph that holds each edge once
#: (in-degrees counted from successor sets) read 13.8, a closed form
#: that builds each spine's tag-3 nodes once per pod read 13.1, and a
#: lint whose T001 the rank potential settles (no tagged graph is built
#: for a plan whose every table respects φ) reads 10.4, lint alone 7.9
#: -> 5.2 (CPython 3.11). The ceiling sits between 10.4 and 13.1, so a
#: lint that rebuilds the graph of a φ-certified plan trips it.
MAX_CALLS_PER_RULE = 12


def _calls(profile: cProfile.Profile, name: str = "") -> int:
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    return sum(
        ncalls
        for (_file, _line, func), (_cc, ncalls, *_rest) in stats.items()
        if not name or func == name
    )


def test_plan_and_lint_calls_per_rule_stay_bounded():
    topo = clos3(ClosParams(8, 8, 4, 4, hosts_per_tor=0))
    planning = cProfile.Profile()
    planning.enable()
    try:
        plan = TaggerPlan.from_provider(topo, UpDownElpProvider())
    finally:
        planning.disable()
    linting = cProfile.Profile()
    linting.enable()
    try:
        report = lint_plan(plan)
    finally:
        linting.disable()
    assert report.ok
    assert plan.total_rules == 7424
    per_rule = (_calls(planning) + _calls(linting)) / plan.total_rules
    assert per_rule <= MAX_CALLS_PER_RULE, (
        f"{per_rule:.1f} profiled calls per planned rule "
        f"(ceiling {MAX_CALLS_PER_RULE})"
    )
    # S104 evaluates first match in one ordered pass, never per key.
    assert _calls(linting, "matches") == 0
    # 36 tables, two contents: 32 equal leaves and 4 equal spines.
    assert len(plan.tables) == 36
    assert _calls(linting, "rule_section") == 2
    assert _calls(linting, "program_section") == 2


#: Dead ``(switch, tag, in_port)`` match states of the hosted 64-ToR
#: Clos ``from_provider`` plan (ROADMAP 1b): none is reachable from a
#: host, and R201 reports each one once. One finding per rule read
#: 7 424 ``make_diagnostic`` calls.
DEAD_STATES = 512


def test_dead_rules_cost_one_finding_per_state():
    topo = clos3(ClosParams(8, 8, 4, 4, hosts_per_tor=1))
    plan = TaggerPlan.from_provider(topo, UpDownElpProvider())
    linting = cProfile.Profile()
    linting.enable()
    try:
        report = lint_plan(plan)
    finally:
        linting.disable()
    assert report.stats["dead_rules"] == plan.total_rules == 7424
    findings = _calls(linting, "make_diagnostic")
    assert findings <= DEAD_STATES, (
        f"{findings} make_diagnostic calls for {DEAD_STATES} dead match "
        "states"
    )
