"""Tests of the differential fuzzer (:mod:`repro.fuzz`)."""

from repro.fuzz import crosscheck
from repro.fuzz.crosscheck import cross_check


def ran_checks(scenarios):
    """The counting rule, re-derived from ``stats``: declared invariants
    of every static stage that reports ``"checked"``."""
    total = 0
    for scenario in scenarios:
        stats = cross_check(scenario).stats
        total += sum(
            len(stage.invariants)
            for stage in crosscheck.STAGES
            if stats.get(stage.name) == "checked"
        )
    return total
