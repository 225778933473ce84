"""Counterexample minimization (delta debugging) for failing scenarios.

Given a scenario whose cross-check produced violations, the shrinker
searches for the smallest scenario that still reproduces at least one of
the *same* invariant violations:

1. the generated ELP is materialized into an explicit path list and
   reduced with ddmin (classic delta debugging over path subsets);
2. mutations (failed links, express circuits) are dropped one at a time;
3. Clos topology parameters are walked downward one step at a time,
   keeping only paths that still exist in the smaller fabric.

The result is what gets committed to ``tests/corpus/`` — small enough
to read, fast enough to replay in CI forever.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.fuzz.crosscheck import cross_check
from repro.fuzz.scenarios import Scenario
from repro.routing.base import Path, validate_path

#: Predicate: does this scenario still reproduce the target violation?
Predicate = Callable[[Scenario], bool]


def _still_fails(
    scenario: Scenario, fault: Optional[str], targets: frozenset
) -> bool:
    try:
        result = cross_check(scenario, fault=fault)
    except ReproError:
        # A shrink step that makes the scenario unbuildable is a bad
        # shrink, not a reproduction.
        return False
    return bool(targets.intersection(result.invariants_violated()))


def ddmin(items: Sequence, predicate: Callable[[List], bool]) -> List:
    """Classic ddmin: smallest sublist (not necessarily minimal set) for
    which ``predicate`` still holds. ``predicate(items)`` must be True.
    Returns what it has after 64 rounds."""
    current = list(items)
    granularity = 2
    rounds = 0
    while len(current) >= 2 and rounds < 64:
        rounds += 1
        chunk = max(1, len(current) // granularity)
        reduced = False
        # Try keeping each single chunk, then each complement.
        subsets = [
            current[i : i + chunk] for i in range(0, len(current), chunk)
        ]
        for subset in subsets:
            if len(subset) < len(current) and predicate(subset):
                current = subset
                granularity = 2
                reduced = True
                break
        if reduced:
            continue
        for i in range(0, len(current), chunk):
            complement = current[:i] + current[i + chunk :]
            if complement and predicate(complement):
                current = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if reduced:
            continue
        if granularity >= len(current):
            break
        granularity = min(len(current), granularity * 2)
    return current


def _paths_valid_in(scenario: Scenario, paths: Sequence[Path]) -> List[Path]:
    """Filter paths down to the ones that still exist in the topology."""
    try:
        topo = scenario.build_topology()
    except ReproError:
        return []
    kept = []
    for path in paths:
        try:
            validate_path(topo, path, allow_failed=True)
        except ReproError:
            continue
        kept.append(tuple(path))
    return kept


_CLOS_PARAM_FLOORS = {
    "num_pods": 1,
    "tors_per_pod": 1,
    "leaves_per_pod": 1,
    "num_spines": 1,
    "hosts_per_tor": 0,
}


def shrink_scenario(
    scenario: Scenario,
    fault: Optional[str] = None,
    targets: Optional[Sequence[str]] = None,
) -> Tuple[Scenario, List[str]]:
    """Minimize a failing scenario; returns (shrunk scenario, violations).

    ``targets`` defaults to the invariants the unshrunk scenario violates;
    shrinking preserves at least one of them.
    """
    baseline = cross_check(scenario, fault=fault)
    if targets is None:
        targets = baseline.invariants_violated()
    target_set = frozenset(targets)
    if not target_set:
        raise ReproError(
            f"scenario {scenario.scenario_id} has no violation to shrink"
        )

    # 1. Pin the generated ELP down to an explicit, reducible path list.
    topo = scenario.build_topology()
    paths = [tuple(p) for p in scenario.build_elp(topo).paths]
    current = scenario.with_paths(paths)
    if not _still_fails(current, fault, target_set):
        # Explicitification changed nothing semantically, but be safe.
        current = scenario
    else:
        shrunk_paths = ddmin(
            paths,
            lambda subset: _still_fails(
                current.with_paths(list(subset)), fault, target_set
            ),
        )
        current = current.with_paths(shrunk_paths)

    # 2. Drop sampled mutations that aren't load-bearing.
    for attr in ("failed_links", "express_pairs"):
        entries = list(getattr(current, attr))
        for entry in list(entries):
            trial_entries = [e for e in entries if e != entry]
            trial = replace(current, **{attr: trial_entries})
            if current.explicit_paths is not None:
                trial = trial.with_paths(
                    _paths_valid_in(trial, current.explicit_paths)
                )
            if trial.explicit_paths is not None and not trial.explicit_paths:
                continue
            if _still_fails(trial, fault, target_set):
                entries = trial_entries
                current = trial
        setattr(current, attr, entries)

    # 3. Walk Clos parameters downward while the failure persists.
    if current.kind in ("clos", "express"):
        current = _shrink_clos_params(current, fault, target_set)

    final = cross_check(current, fault=fault)
    return current, final.invariants_violated()


def _shrink_clos_params(
    scenario: Scenario, fault: Optional[str], target_set: frozenset
) -> Scenario:
    current = scenario
    progress = True
    while progress:
        progress = False
        for param, floor in _CLOS_PARAM_FLOORS.items():
            value = current.topo_params.get(param)
            if value is None or value <= floor:
                continue
            params = dict(current.topo_params)
            params[param] = value - 1
            trial = replace(current, topo_params=params)
            if current.explicit_paths is not None:
                kept = _paths_valid_in(trial, current.explicit_paths)
                if not kept:
                    continue
                trial = trial.with_paths(kept)
            if _still_fails(trial, fault, target_set):
                current = trial
                progress = True
    return current
