"""Command-line interface: plan, export, verify and demo Tagger deployments.

Usage (also available as ``python -m repro``)::

    # Plan a Clos fabric with a 1-bounce budget; dump rules as JSON.
    repro-tagger plan --topology clos --pods 2 --bounces 1 --out plan.json

    # Plan an unstructured fabric from traced shortest paths.
    repro-tagger plan --topology jellyfish --switches 50 --ports 12

    # Re-verify a previously exported plan (Theorem 5.1 on the rules).
    repro-tagger verify plan.json

    # Statically certify the compiled artifact (rules, TCAM, queues).
    repro-tagger lint plan.json --json lint-report.json

    # Statically certify the codebase itself (determinism, observer
    # purity, fork safety, exit-code discipline — docs/SELFCHECK.md).
    repro-tagger selfcheck --strict --json selfcheck-report.json

    # Run the Fig. 10 deadlock demo in the simulator.
    repro-tagger demo fig10

    # Differential fuzz campaign. --workers fans independent scenarios
    # over a fork pool; fuzz is the only command that takes it, and the
    # report is identical at every worker count.
    repro-tagger fuzz --seed 7 --iterations 200 --workers 4

Malformed input — a bad ``--delta``/``--faults``/``--stuck`` spec, a
plan file that is not an exported plan — fails closed: one ``error:``
line naming the flag or file and the offending value, exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.core import PairwiseElpProvider
    from repro.lint import LintReport
    from repro.obs import Telemetry
    from repro.topology import TopologyDelta

from repro.core import (
    STRATEGY_EXHAUSTIVE,
    STRATEGY_SYMMETRY,
    TaggerPlan,
    assert_deadlock_free,
    jellyfish_elp,
    rules_to_tagged_graph,
)
from repro.core.rules import RuleTable
from repro.exceptions import ReproError
from repro.topology import (
    TESTBED_BLUE_PATH,
    TESTBED_GREEN_PATH,
    ClosParams,
    Topology,
    clos3,
    jellyfish,
)

# ----------------------------------------------------------------------
# Exit codes — uniform across every subcommand (see docs/DEPLOYMENT.md):
#   0  success
#   1  error, divergence, unsafe plan, escaped injected fault
#   2  completed with warnings (lint/selfcheck --strict leftovers, demo
#      deadlock, degraded rollout with quarantined switches)
#   3  rollout rolled back to the previous certified plan; for
#      selfcheck, the allowlist itself failed certification (stale or
#      unjustified audited exceptions)
# ----------------------------------------------------------------------
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNINGS = 2
EXIT_ROLLED_BACK = 3
EXIT_INTEGRITY = 3


# ----------------------------------------------------------------------
# Topology construction from CLI args
# ----------------------------------------------------------------------
def build_topology(args: argparse.Namespace) -> Topology:
    if args.topology == "clos":
        return clos3(
            ClosParams(
                num_pods=args.pods,
                tors_per_pod=args.tors,
                leaves_per_pod=args.leaves,
                num_spines=args.spines,
                hosts_per_tor=args.hosts,
            )
        )
    if args.topology == "jellyfish":
        return jellyfish(
            num_switches=args.switches,
            ports_per_switch=args.ports,
            hosts_per_switch=0,
            seed=args.seed,
        )
    raise ReproError(f"unknown topology {args.topology!r}")


def _strategy(args: argparse.Namespace) -> str:
    if getattr(args, "symmetry", True):
        return STRATEGY_SYMMETRY
    return STRATEGY_EXHAUSTIVE


def _pairwise_provider(args: argparse.Namespace) -> "PairwiseElpProvider":
    """The pairwise ELP provider matching the topology family."""
    from repro.core import ShortestPathElpProvider, UpDownElpProvider

    if args.topology == "clos":
        return UpDownElpProvider()
    return ShortestPathElpProvider()


def build_plan(args: argparse.Namespace, topo: Topology) -> TaggerPlan:
    if getattr(args, "elp", "clos") == "updown":
        # Pairwise-provider planning: Algorithm 1 over the enumerated
        # ELP, symmetry-accelerated by default (--no-symmetry forces
        # exhaustive enumeration).
        return TaggerPlan.from_provider(
            topo, _pairwise_provider(args), strategy=_strategy(args)
        )
    if args.topology == "clos":
        return TaggerPlan.for_clos(topo, max_bounces=args.bounces)
    elp = jellyfish_elp(topo, extra_random_paths=args.extra_paths, seed=args.seed)
    return TaggerPlan.from_elp(topo, elp)


# ----------------------------------------------------------------------
# Plan export / import
# ----------------------------------------------------------------------
def plan_to_dict(args: argparse.Namespace, plan: TaggerPlan) -> Dict[str, Any]:
    return {
        "generator": {
            key: getattr(args, key)
            for key in (
                "topology",
                "pods",
                "tors",
                "leaves",
                "spines",
                "hosts",
                "bounces",
                "switches",
                "ports",
                "extra_paths",
                "seed",
                "elp",
                "symmetry",
            )
            if hasattr(args, key)
        },
        "description": plan.description,
        "num_lossless_queues": plan.num_lossless_queues,
        "rules": {
            switch: sorted(
                [tag, in_port, out_port, new_tag]
                for (tag, in_port, out_port), new_tag in table.rules.items()
            )
            for switch, table in plan.tables.items()
        },
    }


def dict_to_tables(blob: Dict[str, Any]) -> Dict[str, RuleTable]:
    rules_blob = blob.get("rules")
    if not isinstance(rules_blob, dict):
        raise ReproError('no "rules" object mapping switches to rule rows')
    tables: Dict[str, RuleTable] = {}
    for switch, rules in rules_blob.items():
        if not isinstance(rules, list):
            raise ReproError(
                f"switch {switch!r}: rules must be a list of rows, "
                f"got {rules!r}"
            )
        table = RuleTable(switch=switch)
        for row in rules:
            if (
                not isinstance(row, list)
                or len(row) != 4
                or not all(type(value) is int for value in row)
            ):
                raise ReproError(
                    f"switch {switch!r}: rule row {row!r} is not "
                    f"[tag, in_port, out_port, new_tag] (four integers)"
                )
            tag, in_port, out_port, new_tag = row
            table.rules[(tag, in_port, out_port)] = new_tag
        tables[switch] = table
    return tables


def _fail_exported_links(topo: Topology, failed_links: Any) -> None:
    """Put ``topo`` in the failed state a ``replan --out`` plan was made for."""
    if not isinstance(failed_links, list):
        raise ReproError(
            f'"failed_links" must be a list of [a, b] link endpoints, '
            f"got {failed_links!r}"
        )
    for link in failed_links:
        if not (
            isinstance(link, list)
            and len(link) == 2
            and all(isinstance(name, str) for name in link)
            and topo.has_link(*link)
        ):
            raise ReproError(
                f'"failed_links" entry {link!r} is not the [a, b] '
                f"endpoints of a link of the fabric"
            )
        topo.fail_link(*link)


def _write_json_report(
    path: str, blob: Dict[str, Any], telemetry: Optional["Telemetry"]
) -> None:
    """Dump ``blob`` as JSON, embedding the telemetry snapshot if any."""
    if telemetry is not None:
        blob["telemetry"] = telemetry.snapshot()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(blob, handle, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_plan(args: argparse.Namespace) -> int:
    topo = build_topology(args)
    plan = build_plan(args, topo)
    report = plan.verify()
    print(f"fabric: {topo}")
    print(plan.summary())
    if plan.meta:
        certified = "certified" if plan.meta.get("certified") else "exhaustive"
        print(
            f"enumeration: {plan.meta.get('strategy')} ({certified}), "
            f"{plan.meta.get('elp_paths')} ELP path(s)"
        )
    print(f"verification: {report.summary()}")
    if args.out:
        blob = plan_to_dict(args, plan)
        _write_json_report(args.out, blob, None)
        print(f"exported rules for {len(blob['rules'])} switches to {args.out}")
    if not report.deadlock_free:
        print("ERROR: plan failed verification", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _load_plan_artifacts(
    plan_file: str,
) -> Tuple[Dict[str, Any], Topology, Dict[str, RuleTable]]:
    with open(plan_file, "r", encoding="utf-8") as handle:
        blob = json.load(handle)
    generator = blob.get("generator") if isinstance(blob, dict) else None
    if not isinstance(generator, dict):
        raise ReproError(
            f'{plan_file}: not an exported plan (no "generator" object '
            f"describing the topology)"
        )
    try:
        topo = build_topology(argparse.Namespace(**generator))
        _fail_exported_links(topo, blob.get("failed_links", []))
        tables = dict_to_tables(blob)
    except AttributeError as exc:
        raise ReproError(
            f'{plan_file}: incomplete "generator": {exc}'
        ) from exc
    except ReproError as exc:
        raise ReproError(f"{plan_file}: {exc}") from exc
    return blob, topo, tables


def cmd_verify(args: argparse.Namespace) -> int:
    blob, topo, tables = _load_plan_artifacts(args.plan_file)
    try:
        # Tag-decreasing rules are rejected while rebuilding the graph;
        # per-tag cycles by the verification proper.
        graph = rules_to_tagged_graph(topo, tables)
        report = assert_deadlock_free(graph)
    except ReproError as exc:
        print(f"UNSAFE: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"fabric: {topo}")
    print(f"verification: {report.summary()}")
    if args.lint:
        lint_report = _lint_blob(blob, topo, tables, tcam_budget=None)
        print(f"lint: {lint_report.summary()}")
        if not lint_report.ok:
            for diag in lint_report.errors:
                print(diag.render(), file=sys.stderr)
            return EXIT_ERROR
    return EXIT_OK


def _lint_blob(
    blob: Dict[str, Any],
    topo: Topology,
    tables: Dict[str, RuleTable],
    tcam_budget: Optional[int],
) -> "LintReport":
    from repro.core.pipeline import QueueMap
    from repro.lint import DeploymentArtifact, lint_artifact

    num_queues = int(blob.get("num_lossless_queues", 0))
    queue_map = QueueMap.identity(num_queues) if num_queues else None
    artifact = DeploymentArtifact(
        topo=topo,
        tables=tables,
        queue_map=queue_map,
        tcam_budget=tcam_budget,
    )
    return lint_artifact(artifact)


def cmd_lint(args: argparse.Namespace) -> int:
    """Static certification of an exported plan's deployment artifacts.

    Exit codes are CI-friendly: 0 when no error-severity findings (2
    with ``--strict`` if warnings remain), 1 on errors.
    """
    blob, topo, tables = _load_plan_artifacts(args.plan_file)
    report = _lint_blob(blob, topo, tables, tcam_budget=args.tcam_budget)
    print(f"fabric: {topo}")
    print(report.render_text())
    if args.json:
        _write_json_report(args.json, report.to_dict(), None)
        print(f"machine-readable report written to {args.json}")
    if not report.ok:
        return EXIT_ERROR
    if args.strict and report.warnings:
        return EXIT_WARNINGS
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """Static self-certification of the codebase's own invariants.

    Walks ``src/repro/**`` with the :mod:`repro.devcheck` analyzer
    (DET determinism, PUR observer purity, FRK fork safety, CLI
    exit-code discipline). Exit codes: 0 clean, 1 unallowlisted
    errors, 2 with ``--strict`` when warnings remain, 3 when the
    allowlist itself fails certification (stale/unjustified entries).
    """
    from pathlib import Path

    from repro.devcheck import (
        AllowlistError,
        run_selfcheck,
        severity_exit_code,
    )

    try:
        report = run_selfcheck(
            root=Path(args.root) if args.root else None,
            allowlist_path=Path(args.allowlist) if args.allowlist else None,
        )
    except AllowlistError as exc:
        print(f"allowlist integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    print(report.render_text())
    telemetry = _make_telemetry(args)
    if telemetry is not None:
        from repro.obs import observe_selfcheck

        observe_selfcheck(telemetry, report)
    if args.json:
        _write_json_report(args.json, report.to_dict(), telemetry)
        print(f"machine-readable report written to {args.json}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.render_text() + "\n")
        print(f"text report written to {args.out}")
    _export_telemetry(args, telemetry)
    return severity_exit_code(report, strict=args.strict)


def _parse_delta(spec: str) -> "TopologyDelta":
    """Parse a ``kind:arg[:arg]`` delta spec from the command line.

    Examples: ``down:T1:L1``, ``up:T1:L1``, ``drain:L2``,
    ``undrain:L2``, ``add-paths:T1,L1,T2``, ``remove-paths:T1,L1,T2``.
    """
    from repro.topology import TopologyDelta

    parts = spec.split(":")
    kind = parts[0]
    if kind in ("down", "up") and len(parts) == 3:
        ctor = TopologyDelta.link_down if kind == "down" else TopologyDelta.link_up
        return ctor(parts[1], parts[2])
    if kind in ("drain", "undrain") and len(parts) == 2:
        if kind == "drain":
            return TopologyDelta.drain(parts[1])
        return TopologyDelta.undrain(parts[1])
    if kind in ("add-paths", "remove-paths") and len(parts) == 2:
        path = tuple(parts[1].split(","))
        if kind == "add-paths":
            return TopologyDelta.add_paths([path])
        return TopologyDelta.remove_paths([path])
    raise ReproError(
        f"bad delta spec {spec!r}; expected down:A:B, up:A:B, drain:S, "
        f"undrain:S, add-paths:N1,N2,..., or remove-paths:N1,N2,..."
    )


def _format_timings(timings: Dict[str, float]) -> str:
    return "  ".join(
        f"{name}={seconds * 1000.0:.1f}ms" for name, seconds in timings.items()
    )


# ----------------------------------------------------------------------
# Telemetry plumbing (shared by demo / replan / deploy / fuzz)
# ----------------------------------------------------------------------
def _make_telemetry(args: argparse.Namespace) -> Optional["Telemetry"]:
    """A capture-everything Telemetry when ``--telemetry`` is given."""
    if getattr(args, "telemetry", None) is None:
        return None
    from repro.obs import Telemetry

    return Telemetry(capacity=1_000_000)


def _export_telemetry(
    args: argparse.Namespace, telemetry: Optional["Telemetry"]
) -> None:
    if telemetry is None:
        return
    lines = telemetry.export_jsonl(args.telemetry)
    evicted = telemetry.bus.evicted
    suffix = f" ({evicted} evicted)" if evicted else ""
    print(f"telemetry: {lines} event(s) written to {args.telemetry}{suffix}")


def cmd_stats(args: argparse.Namespace) -> int:
    """Validate + summarize a telemetry JSONL stream.

    Schema violations (unknown kinds, missing fields, non-scalar values)
    exit 1 with a ``file:line`` diagnostic — this is the machine check
    CI's telemetry smoke step runs on captured streams.
    """
    from repro.obs import aggregate_jsonl, registry_from_aggregate

    aggregate = aggregate_jsonl(args.telemetry_file)
    if args.format == "json":
        print(json.dumps(aggregate, indent=2, sort_keys=True))
    elif args.format == "prom":
        registry = registry_from_aggregate(aggregate)
        print(registry.render_prometheus(), end="")
    else:
        print(f"{args.telemetry_file}: {aggregate['events']} event(s)")
        for kind, count in aggregate["by_kind"].items():
            print(f"  {kind:24s} {count}")
        if aggregate["first_ts"] is not None:
            span = aggregate["last_ts"] - aggregate["first_ts"]
            print(f"  timestamp span: {span:.6f}s")
    return EXIT_OK


def cmd_replan(args: argparse.Namespace) -> int:
    """Incremental re-planning: apply topology deltas to a warm plan.

    Builds the initial plan with the pairwise ELP provider matching the
    topology family, then feeds each ``--delta`` through the incremental
    engine, printing the replan mode, per-stage timings and the minimal
    per-switch rule diff. ``--compare-scratch`` re-plans from scratch at
    the end and fails unless the tables are byte-identical.
    """
    import time

    from repro.core import IncrementalPlanner, tables_equal

    topo = build_topology(args)
    deltas = [_parse_delta(spec) for spec in (args.delta or [])]
    telemetry = _make_telemetry(args)
    planner = IncrementalPlanner(
        topo,
        _pairwise_provider(args),
        minimize=args.minimize,
        telemetry=telemetry,
        strategy=_strategy(args),
    )
    print(f"fabric: {topo}")
    print(f"initial build: {planner.plan.summary()}")
    print(f"  {_format_timings(planner.initial_timings)}")
    incremental_seconds = 0.0
    for delta in deltas:
        result = planner.apply(delta)
        incremental_seconds += result.total_seconds
        print(result.summary())
        print(f"  {_format_timings(result.timings)}")
        for switch in sorted(result.diffs):
            diff = result.diffs[switch]
            print(
                f"  {switch}: +{len(diff.added)} -{len(diff.removed)} "
                f"~{len(diff.changed)}"
            )
    print(f"final plan: {planner.plan.summary()}")
    if args.compare_scratch:
        start = time.perf_counter()
        scratch = planner.scratch_plan()
        scratch_seconds = time.perf_counter() - start
        identical = (
            tables_equal(planner.plan.tables, scratch.tables)
            and planner.plan.graph == scratch.graph
        )
        print(
            f"scratch recompute: {scratch_seconds * 1000.0:.1f}ms "
            f"(incremental replans: {incremental_seconds * 1000.0:.1f}ms)"
        )
        if not identical:
            print(
                "ERROR: incremental plan diverges from from-scratch plan",
                file=sys.stderr,
            )
            return EXIT_ERROR
        print("incremental plan is byte-identical to from-scratch plan")
    if args.out:
        blob = plan_to_dict(args, planner.plan)
        blob["deltas"] = [delta.describe() for delta in deltas]
        blob["failed_links"] = sorted(topo.failed_links)
        _write_json_report(args.out, blob, telemetry)
        print(f"exported rules for {len(blob['rules'])} switches to {args.out}")
    _export_telemetry(args, telemetry)
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.routing import install_loop, shortest_path_tables
    from repro.simulator import Flow, SimNetwork, find_deadlock_cycle, pin_path
    from repro.topology import testbed_clos

    topo = testbed_clos()
    table = shortest_path_tables(topo)
    telemetry = _make_telemetry(args)
    if args.tagger:
        plan = TaggerPlan.for_clos(topo, max_bounces=1)
        net = SimNetwork.with_plan(
            topo, table, plan, metrics_bucket=0.02, telemetry=telemetry
        )
        print("running WITH Tagger (2 lossless priorities)")
    else:
        net = SimNetwork(topo, table, metrics_bucket=0.02, telemetry=telemetry)
        print("running WITHOUT Tagger (plain PFC)")

    detector = None
    coordinator = None
    if args.detect:
        from repro.detect import RecoveryArbiter, RecoveryCoordinator
        from repro.simulator import DeadlockDetector, DetectorConfig

        detector = DeadlockDetector(
            net,
            DetectorConfig(
                poll=args.detect_poll,
                confirm_scans=args.detect_confirm_scans,
            ),
        )
        if args.detect_quarantine:
            coordinator = RecoveryCoordinator(net, arbiter=RecoveryArbiter())
            detector.on_confirm = coordinator.on_confirm
        detector.install()
        mode = "quarantine" if coordinator is not None else "observe-only"
        print(f"runtime deadlock detector armed ({mode})")

    if args.scenario == "fig10":
        f1 = net.add_flow(
            Flow(
                src="H1",
                dst="H13",
                pinned_next_hops=pin_path(TESTBED_BLUE_PATH),
                flow_id=6001,
            )
        )
        f2 = net.add_flow(
            Flow(
                src="H9",
                dst="H2",
                start=0.01,
                pinned_next_hops=pin_path(TESTBED_GREEN_PATH),
                flow_id=6002,
            )
        )
        net.at(0.05, lambda: net.set_receiver_rate("H2", 5e7))
        net.at(0.08, lambda: net.set_receiver_rate("H2", None))
    else:  # fig11
        f1 = net.add_flow(Flow(src="H1", dst="H5", flow_id=6001))
        f2 = net.add_flow(
            Flow(
                src="H2",
                dst="H6",
                pinned_next_hops=pin_path(("H2", "T1", "L1", "T2", "H6")),
                flow_id=6002,
            )
        )
        net.at(0.02, lambda: install_loop(net.table, "H5", "T1", "L1"))

    net.run(args.duration)
    print("time(s)  flow1(Mbps)  flow2(Mbps)")
    s1 = net.metrics.rate_series(f1.flow_id, 0, args.duration)
    s2 = net.metrics.rate_series(f2.flow_id, 0, args.duration)
    for (t, r1), (_, r2) in zip(s1, s2):
        print(f"{t:7.2f}  {r1 / 1e6:11.1f}  {r2 / 1e6:11.1f}")
    if telemetry is not None:
        from repro.obs import sample_queue_gauges

        sample_queue_gauges(telemetry.registry, net)
    _export_telemetry(args, telemetry)
    if detector is not None:
        clears = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(detector.clear_reasons().items())
        )
        print(
            f"detector: {detector.triggers_originated} trigger(s), "
            f"{detector.suspects_raised} suspect(s), "
            f"{detector.confirms} confirm(s)"
            + (f", clears: {clears}" if clears else "")
        )
        if coordinator is not None and coordinator.quarantines:
            moved = sum(q.moved for q in coordinator.quarantines)
            print(
                f"detector quarantined {len(coordinator.quarantines)} "
                f"queue(s), moved {moved} packet(s) to lossy, "
                f"{coordinator.rearms} re-arm(s)"
            )
    cycle = find_deadlock_cycle(net)
    if cycle:
        print(f"DEADLOCK across {sorted({n[0] for n in cycle})}")
        return EXIT_WARNINGS
    print("no deadlock")
    return EXIT_OK


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import FuzzConfig, run_fuzz

    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        oracle_budget=args.oracle_budget,
        time_budget=args.time_budget,
        shrink=args.shrink,
        inject_fault=args.inject_fault,
        corpus_dir=args.corpus_dir if args.shrink else None,
        strict_oracle=args.strict_oracle,
        detect_budget=args.detect_budget,
        detect_duration=args.detect_duration,
        workers=args.workers,
    )
    telemetry = _make_telemetry(args)
    report = run_fuzz(config, telemetry=telemetry)
    print(report.summary())
    for violation in report.violations:
        print(f"  [{violation['scenario_id']}] {violation['detail']}")
    for entry in report.corpus_entries:
        print(f"  shrunk counterexample written: {entry.path}")
    if args.report:
        _write_json_report(args.report, report.to_dict(), telemetry)
        print(f"report written to {args.report}")
    _export_telemetry(args, telemetry)
    if args.inject_fault:
        if report.fault_caught:
            print(f"injected fault {args.inject_fault!r} was caught")
            return EXIT_OK
        print(
            f"ERROR: injected fault {args.inject_fault!r} escaped detection",
            file=sys.stderr,
        )
        return EXIT_ERROR
    return EXIT_OK if report.ok else EXIT_ERROR


def _parse_fault_spec(spec: str) -> Tuple[str, Tuple[str, ...]]:
    """Parse ``SWITCH:fate[,fate...]`` (e.g. ``S1:timeout,duplicate``)."""
    from repro.deploy import FAULT_KINDS, FAULT_OK

    switch, _, fates_spec = spec.partition(":")
    if not switch or not fates_spec:
        raise ReproError(
            f"bad fault spec {spec!r}; expected SWITCH:fate[,fate...]"
        )
    fates = tuple(fates_spec.split(","))
    for fate in fates:
        if fate not in FAULT_KINDS and fate != FAULT_OK:
            raise ReproError(
                f"unknown fault {fate!r}; choose from "
                f"{', '.join(FAULT_KINDS)}"
            )
    return switch, fates


def _parse_stuck_spec(spec: str) -> Tuple[str, int]:
    """Parse ``SWITCH[:K]`` — switch wedged from its K-th send on."""
    switch, _, index = spec.partition(":")
    if not switch:
        raise ReproError(f"bad stuck spec {spec!r}; expected SWITCH[:K]")
    try:
        return switch, int(index) if index else 0
    except ValueError:
        raise ReproError(
            f"bad stuck spec {spec!r}; expected SWITCH[:K] with integer K"
        ) from None


def _deploy_transition(
    args: argparse.Namespace,
) -> Tuple[Topology, Dict[str, RuleTable], Dict[str, RuleTable]]:
    """Build (topo, old tables, new tables) for the requested deltas."""
    from repro.core import IncrementalPlanner

    topo = build_topology(args)
    planner = IncrementalPlanner(
        topo, _pairwise_provider(args), strategy=_strategy(args)
    )
    old = dict(planner.plan.tables)
    deltas = [_parse_delta(spec) for spec in (args.delta or [])]
    if not deltas:
        raise ReproError(
            "deploy needs at least one --delta to define the target plan "
            "(e.g. --delta down:L1:S1)"
        )
    for delta in deltas:
        planner.apply(delta)
    return topo, old, dict(planner.plan.tables)


def _deploy_exit_code(outcome: str) -> int:
    from repro.deploy import CONVERGED, DEGRADED, ROLLED_BACK

    if outcome == CONVERGED:
        return EXIT_OK
    if outcome == DEGRADED:
        return EXIT_WARNINGS
    if outcome == ROLLED_BACK:
        return EXIT_ROLLED_BACK
    return EXIT_ERROR  # refused / failed


def cmd_deploy(args: argparse.Namespace) -> int:
    """Roll a re-planned table transition onto a simulated agent fleet.

    The transition is ``initial plan -> plan after --delta``, certified
    by the transitional-safety verifier and pushed over a management
    network with injectable faults (``--faults``, ``--stuck``,
    ``--fault-rate``). ``--chaos N`` instead sweeps N seeded random
    fault schedules and demands every run end converged, degraded or
    cleanly rolled back with lint-clean final tables.
    """
    import time

    from repro.core.rules import diff_tables
    from repro.deploy import (
        FaultPlan,
        RolloutConfig,
        random_fault_plan,
        run_rollout,
    )

    topo, old, new = _deploy_transition(args)
    diffs = diff_tables(old, new)
    config = RolloutConfig(
        max_attempts=args.max_attempts,
        max_wave_size=args.wave_size,
        quarantine=not args.no_quarantine,
        seed=args.seed,
    )
    print(f"fabric: {topo}")
    print(f"transition: {len(diffs)} switch(es) to update")

    telemetry = _make_telemetry(args)
    if args.chaos:
        start = time.perf_counter()
        outcomes: Dict[str, int] = {}
        unsafe = 0
        runs = 0
        total_retries = 0
        total_rollbacks = 0
        for index in range(args.chaos):
            if (
                args.time_budget is not None
                and time.perf_counter() - start > args.time_budget
            ):
                print(
                    f"time budget hit after {runs} run(s); "
                    f"{args.chaos - runs} skipped"
                )
                break
            faults = random_fault_plan(
                sorted(diffs),
                seed=args.seed + index,
                rate=args.fault_rate,
                stuck_prob=args.stuck_prob,
            )
            # One shared telemetry across the sweep: the JSONL stream's
            # deploy.retry / deploy.rollback counts must reconcile with
            # the summed per-run report counters.
            report = run_rollout(
                topo, old, new, config=config, faults=faults,
                telemetry=telemetry,
            )
            runs += 1
            total_retries += report.retries
            total_rollbacks += report.rollbacks
            outcomes[report.outcome] = outcomes.get(report.outcome, 0) + 1
            if not (report.ok and report.final_lint_ok):
                unsafe += 1
                print(
                    f"UNSAFE run (seed {args.seed + index}): "
                    f"{report.outcome} — {report.detail}",
                    file=sys.stderr,
                )
        elapsed = time.perf_counter() - start
        summary = ", ".join(
            f"{name}: {count}" for name, count in sorted(outcomes.items())
        )
        print(f"chaos sweep: {runs} run(s) in {elapsed:.1f}s — {summary}")
        if args.report:
            chaos_blob: Dict[str, Any] = {
                "mode": "chaos",
                "runs": runs,
                "requested": args.chaos,
                "seed": args.seed,
                "fault_rate": args.fault_rate,
                "stuck_prob": args.stuck_prob,
                "outcomes": outcomes,
                "unsafe": unsafe,
                "retries": total_retries,
                "rollbacks": total_rollbacks,
                "elapsed_seconds": round(elapsed, 3),
            }
            _write_json_report(args.report, chaos_blob, telemetry)
            print(f"report written to {args.report}")
        _export_telemetry(args, telemetry)
        if unsafe:
            print(f"ERROR: {unsafe} unsafe run(s)", file=sys.stderr)
            return EXIT_ERROR
        print("every run ended on a certified plan with lint-clean tables")
        return EXIT_OK

    faults = FaultPlan()
    for spec in args.faults or []:
        switch, fates = _parse_fault_spec(spec)
        faults.fates[switch] = fates
    for spec in args.stuck or []:
        switch, index = _parse_stuck_spec(spec)
        faults.stuck_from[switch] = index
    if args.fault_rate and not (args.faults or args.stuck):
        faults = random_fault_plan(
            sorted(diffs), seed=args.seed, rate=args.fault_rate,
            stuck_prob=args.stuck_prob,
        )
    print(f"faults: {faults.describe()}")
    report = run_rollout(
        topo, old, new, config=config, faults=faults, telemetry=telemetry
    )
    print(report.describe())
    print(f"  {_format_timings(report.timings)}")
    if args.report:
        _write_json_report(args.report, report.to_dict(), telemetry)
        print(f"report written to {args.report}")
    _export_telemetry(args, telemetry)
    return _deploy_exit_code(report.outcome)


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tagger",
        description="Plan, verify and demo Tagger PFC-deadlock prevention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_symmetry_arg(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--symmetry",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="recognize isomorphic Clos pods and plan from one "
            "equivalence class per orbit (default); --no-symmetry "
            "forces exhaustive per-pair ELP enumeration — the escape "
            "hatch when the closed form is in doubt",
        )

    def add_topology_args(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--topology", choices=("clos", "jellyfish"), default="clos"
        )
        command.add_argument("--pods", type=int, default=2)
        command.add_argument("--tors", type=int, default=2)
        command.add_argument("--leaves", type=int, default=2)
        command.add_argument("--spines", type=int, default=2)
        command.add_argument("--hosts", type=int, default=4)
        command.add_argument("--switches", type=int, default=50)
        command.add_argument("--ports", type=int, default=12)

    def add_telemetry_arg(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--telemetry",
            type=str,
            default=None,
            metavar="OUT.JSONL",
            help="capture structured telemetry events and write the "
            "stream as JSONL (inspect with `repro-tagger stats`)",
        )

    plan = sub.add_parser("plan", help="compute and export a Tagger plan")
    add_topology_args(plan)
    plan.add_argument("--bounces", type=int, default=1)
    plan.add_argument("--extra-paths", type=int, default=0, dest="extra_paths")
    plan.add_argument("--seed", type=int, default=1)
    plan.add_argument(
        "--elp",
        choices=("clos", "updown"),
        default="clos",
        help="'clos' (default) uses the topology-native scheme "
        "(ClosTagger / jellyfish shortest paths); 'updown' plans via "
        "Algorithm 1 over the pairwise ELP provider (up-down paths on "
        "clos, shortest paths otherwise), honoring --symmetry",
    )
    add_symmetry_arg(plan)
    plan.add_argument("--out", type=str, default=None)
    plan.set_defaults(func=cmd_plan)

    verify = sub.add_parser("verify", help="re-verify an exported plan")
    verify.add_argument("plan_file")
    verify.add_argument(
        "--lint",
        action="store_true",
        help="also run the deployment linter on the plan's artifacts",
    )
    verify.set_defaults(func=cmd_verify)

    lint = sub.add_parser(
        "lint",
        help="statically certify an exported plan's deployment artifacts",
    )
    lint.add_argument("plan_file")
    lint.add_argument(
        "--json",
        type=str,
        default=None,
        help="write the machine-readable diagnostics report here",
    )
    lint.add_argument(
        "--tcam-budget",
        type=int,
        default=None,
        dest="tcam_budget",
        help="per-switch TCAM entry budget (enables B301)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    lint.set_defaults(func=cmd_lint)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="statically certify the codebase's determinism/purity/"
        "fork-safety/exit-code invariants",
    )
    selfcheck.add_argument(
        "--root",
        type=str,
        default=None,
        help="package directory to analyze (default: the installed "
        "repro package)",
    )
    selfcheck.add_argument(
        "--allowlist",
        type=str,
        default=None,
        help="audited-exception file (default: the committed "
        "src/repro/devcheck/allowlist.json)",
    )
    selfcheck.add_argument(
        "--json",
        type=str,
        default=None,
        help="write the machine-readable findings report here",
    )
    selfcheck.add_argument(
        "--out",
        type=str,
        default=None,
        help="write the rendered text report here (in addition to "
        "stdout)",
    )
    selfcheck.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    add_telemetry_arg(selfcheck)
    selfcheck.set_defaults(func=cmd_selfcheck)

    replan = sub.add_parser(
        "replan",
        help="incrementally re-plan across topology deltas",
    )
    add_topology_args(replan)
    replan.add_argument("--seed", type=int, default=1)
    replan.add_argument(
        "--minimize",
        choices=("deterministic", "paper", "off"),
        default="deterministic",
    )
    replan.add_argument(
        "--delta",
        action="append",
        metavar="SPEC",
        help="delta to apply, in order (down:A:B, up:A:B, drain:S, "
        "undrain:S, add-paths:N1,N2,..., remove-paths:N1,N2,...); "
        "repeatable",
    )
    replan.add_argument(
        "--compare-scratch",
        action="store_true",
        dest="compare_scratch",
        help="re-plan from scratch at the end and require byte-identical "
        "rule tables",
    )
    add_symmetry_arg(replan)
    replan.add_argument("--out", type=str, default=None)
    add_telemetry_arg(replan)
    replan.set_defaults(func=cmd_replan)

    demo = sub.add_parser("demo", help="run a deadlock scenario")
    demo.add_argument("scenario", choices=("fig10", "fig11"))
    demo.add_argument("--tagger", action="store_true")
    demo.add_argument("--duration", type=float, default=0.3)
    demo.add_argument(
        "--detect",
        action="store_true",
        help="install the runtime DCFIT-style deadlock detector",
    )
    demo.add_argument(
        "--detect-poll",
        type=float,
        default=0.005,
        dest="detect_poll",
        help="detector scan period in sim seconds (with --detect)",
    )
    demo.add_argument(
        "--detect-confirm-scans",
        type=int,
        default=3,
        dest="detect_confirm_scans",
        help="consecutive re-observations before a suspect is confirmed",
    )
    demo.add_argument(
        "--no-detect-quarantine",
        action="store_false",
        dest="detect_quarantine",
        help="observe-only: confirm deadlocks but do not quarantine",
    )
    add_telemetry_arg(demo)
    demo.set_defaults(func=cmd_demo)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzz: cross-check all taggers + simulator oracle",
    )
    fuzz.add_argument("--seed", type=int, default=7)
    fuzz.add_argument("--iterations", type=int, default=50)
    fuzz.add_argument(
        "--oracle-budget",
        type=int,
        default=3,
        dest="oracle_budget",
        help="max scenarios replayed through the simulator (0 disables)",
    )
    fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        dest="time_budget",
        help="wall-clock cap in seconds",
    )
    fuzz.add_argument("--shrink", action="store_true")
    fuzz.add_argument(
        "--inject-fault",
        type=str,
        default=None,
        dest="inject_fault",
        help="seed one artificial bug from repro.fuzz.faults.FAULT_TABLE "
        "into every iteration (harness self-test; an unknown name lists "
        "the valid ones); exit 0 iff an invariant its row trips fires",
    )
    fuzz.add_argument(
        "--corpus-dir",
        type=str,
        default="tests/corpus",
        dest="corpus_dir",
        help="where shrunk counterexamples are written (with --shrink)",
    )
    fuzz.add_argument(
        "--strict-oracle",
        action="store_true",
        dest="strict_oracle",
        help="treat a non-deadlocking untagged control run as a violation",
    )
    fuzz.add_argument(
        "--detect-budget",
        type=int,
        default=0,
        dest="detect_budget",
        help="max scenarios run through the detection head-to-head "
        "matrix (Tagger-on vs detection-only vs both; 0 disables)",
    )
    fuzz.add_argument(
        "--detect-duration",
        type=float,
        default=0.3,
        dest="detect_duration",
        help="sim seconds per detection-matrix cell",
    )
    fuzz.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the scenario sweep; any count yields "
        "the identical report (modulo elapsed time)",
    )
    fuzz.add_argument("--report", type=str, default=None)
    add_telemetry_arg(fuzz)
    fuzz.set_defaults(func=cmd_fuzz)

    deploy = sub.add_parser(
        "deploy",
        help="roll a re-planned transition onto a simulated agent fleet "
        "with injectable management-plane faults",
    )
    add_topology_args(deploy)
    deploy.add_argument("--seed", type=int, default=7)
    deploy.add_argument(
        "--delta",
        action="append",
        metavar="SPEC",
        help="topology delta defining the target plan (same specs as "
        "replan); repeatable, at least one required",
    )
    deploy.add_argument(
        "--faults",
        action="append",
        metavar="SWITCH:FATE[,FATE...]",
        help="explicit per-switch fault schedule (fates: timeout, "
        "crash-before-ack, crash-after-apply, partial-batch, duplicate, "
        "reorder, ok); repeatable",
    )
    deploy.add_argument(
        "--stuck",
        action="append",
        metavar="SWITCH[:K]",
        help="wedge a switch (permanent timeouts) from its K-th send on",
    )
    deploy.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        dest="fault_rate",
        help="seeded random fault probability per send (used when no "
        "explicit --faults/--stuck are given, and by --chaos)",
    )
    deploy.add_argument(
        "--stuck-prob",
        type=float,
        default=0.0,
        dest="stuck_prob",
        help="probability a switch is permanently wedged (random plans)",
    )
    deploy.add_argument(
        "--chaos",
        type=int,
        default=0,
        metavar="N",
        help="sweep N seeded random fault schedules; exit 0 iff every "
        "run ends on a certified plan with lint-clean tables",
    )
    deploy.add_argument(
        "--time-budget",
        type=float,
        default=None,
        dest="time_budget",
        help="wall-clock cap in seconds for --chaos sweeps",
    )
    add_symmetry_arg(deploy)
    deploy.add_argument("--max-attempts", type=int, default=8, dest="max_attempts")
    deploy.add_argument("--wave-size", type=int, default=8, dest="wave_size")
    deploy.add_argument(
        "--no-quarantine",
        action="store_true",
        dest="no_quarantine",
        help="roll back instead of quarantining stuck switches",
    )
    deploy.add_argument("--report", type=str, default=None)
    add_telemetry_arg(deploy)
    deploy.set_defaults(func=cmd_deploy)

    stats = sub.add_parser(
        "stats",
        help="validate and summarize a captured telemetry JSONL stream",
    )
    stats.add_argument("telemetry_file")
    stats.add_argument(
        "--format",
        choices=("text", "json", "prom"),
        default="text",
        help="text summary, JSON aggregate, or Prometheus text exposition",
    )
    stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        # Missing plan file, unwritable report path, ...: a clean
        # diagnostic and exit 1, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
