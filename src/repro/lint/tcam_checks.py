"""S-family checks: first-match order semantics of compressed programs.

A TCAM program is an *ordered* entry list; hardware fires the first
matching entry. The compressor emits non-overlapping entries, so any
order works — but the linter cannot assume it is looking at compressor
output. It therefore checks the program as the hardware would read it:

- **S101** an entry fully covered by a single earlier entry never fires
  (error when the earlier rewrite differs — semantics changed — else a
  redundancy warning);
- **S102** partial overlap with a different rewrite: legal, but the
  entry order silently decides the winner;
- **S103** an entry covered only by the *union* of earlier entries;
- **S104** first-match evaluation must reproduce the exact-match
  reference rules (plus the implicit demote-by-default);
- **S105** the final entry must be a catch-all wildcard demote — the
  paper's safeguard rule, "always the last one in the TCAM rule list".

The whole family is per-switch: :func:`program_section` reads one
program, its reference rules and its switch's port set, nothing else —
not even the switch's name, which :func:`check_tcam` stamps on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.compression import TcamEntry
from repro.core.rules import MatchKey, RuleTable
from repro.core.tags import LOSSY_TAG
from repro.lint.diagnostics import Diagnostic, Severity, make_diagnostic, stamp


def _tags_overlap(a: Optional[int], b: Optional[int]) -> bool:
    return a is None or b is None or a == b


def _covers(earlier: TcamEntry, later: TcamEntry) -> bool:
    """Does ``earlier`` match every key ``later`` matches?"""
    tag_covers = earlier.tag is None or earlier.tag == later.tag
    return (
        tag_covers
        and later.in_ports <= earlier.in_ports
        and later.out_ports <= earlier.out_ports
    )


def _overlaps(a: TcamEntry, b: TcamEntry) -> bool:
    return (
        _tags_overlap(a.tag, b.tag)
        and bool(a.in_ports & b.in_ports)
        and bool(a.out_ports & b.out_ports)
    )


def _entry_location(index: int, entry: TcamEntry) -> str:
    tag = "*" if entry.tag is None else str(entry.tag)
    return (
        f"entry#{index}(tag={tag},in={sorted(entry.in_ports)},"
        f"out={sorted(entry.out_ports)})->{entry.new_tag}"
    )


def _check_order(program: Sequence[TcamEntry], diagnostics: List[Diagnostic]) -> None:
    """S101/S102/S103 on one ordered program."""
    for j, later in enumerate(program):
        single_cover = False
        for i in range(j):
            earlier = program[i]
            if _covers(earlier, later):
                severity = (
                    Severity.ERROR
                    if earlier.new_tag != later.new_tag
                    else Severity.WARNING
                )
                consequence = (
                    f"its keys rewrite to {earlier.new_tag} instead of "
                    f"{later.new_tag}"
                    if earlier.new_tag != later.new_tag
                    else "it is redundant"
                )
                diagnostics.append(
                    make_diagnostic(
                        "S101",
                        f"shadowed by {_entry_location(i, earlier)}; the "
                        f"entry can never fire and {consequence}",
                        location=_entry_location(j, later),
                        severity=severity,
                    )
                )
                single_cover = True
                break
            if later.tag is None and later.new_tag == LOSSY_TAG:
                # A trailing catch-all demote is *supposed* to overlap
                # every explicit entry; that is its job.
                continue
            if _overlaps(earlier, later) and earlier.new_tag != later.new_tag:
                diagnostics.append(
                    make_diagnostic(
                        "S102",
                        f"partially overlaps {_entry_location(i, earlier)} "
                        "with a different rewrite; first-match order "
                        "decides the overlap",
                        location=_entry_location(j, later),
                    )
                )
        if not single_cover and _union_covered(program, j):
            diagnostics.append(
                make_diagnostic(
                    "S103",
                    "covered by the union of earlier entries (no single "
                    "shadow); the entry can never fire",
                    location=_entry_location(j, program[j]),
                )
            )


def _union_covered(program: Sequence[TcamEntry], j: int) -> bool:
    """Is ``program[j]`` unreachable behind the union of entries 0..j-1?

    Wildcard-tag entries match an unbounded tag space, so they can only
    be union-covered by earlier wildcard entries (exact-tag coverage is
    never exhaustive over all tags).
    """
    later = program[j]
    if later.tag is None:
        earlier_wild = [e for e in program[:j] if e.tag is None]
        return _ports_union_covered(later, earlier_wild)
    relevant = [e for e in program[:j] if _tags_overlap(e.tag, later.tag)]
    return _ports_union_covered(later, relevant)


def _ports_union_covered(
    later: TcamEntry, earlier: Sequence[TcamEntry]
) -> bool:
    if not earlier:
        return False
    for in_port in later.in_ports:
        for out_port in later.out_ports:
            if not any(
                in_port in e.in_ports and out_port in e.out_ports
                for e in earlier
            ):
                return False
    return True


def _check_roundtrip(
    reference: Mapping[MatchKey, int],
    program: Sequence[TcamEntry],
    diagnostics: List[Diagnostic],
) -> None:
    """S104: first-match semantics == exact rules + implicit safeguard.

    The checked keys are the reference keys in sorted order (equal
    tables filled in different orders share one section), then each
    explicit entry's keys in program order. Their first matches come from
    one walk over the program: the first explicit entry to list a key
    claims it, and a wildcard claims every checked key in its port sets
    that no earlier entry claimed. This gives the same answer as
    :func:`~repro.core.compression.first_match` per key, which is the
    oracle for it in the tests.
    """
    never = len(program)
    # Checked key -> index of the first *explicit* entry matching it.
    claims: Dict[MatchKey, int] = {}
    wildcards: List[Tuple[int, TcamEntry]] = []
    for index, entry in enumerate(program):
        tag = entry.tag
        if tag is None:
            wildcards.append((index, entry))
            if entry.new_tag != LOSSY_TAG:
                diagnostics.append(
                    make_diagnostic(
                        "S104",
                        "wildcard-tag entry with a lossless rewrite "
                        f"(-> {entry.new_tag}) promotes unmatched packets; "
                        "the reference semantics demote them",
                        location=_entry_location(index, entry),
                    )
                )
            continue
        out_ports = entry.out_ports
        for in_port in entry.in_ports:
            for out_port in out_ports:
                key = (tag, in_port, out_port)
                if key not in claims:
                    claims[key] = index
    # Rewrite per claim index; ``never`` (no explicit claim) is no match.
    rewrites: List[Optional[int]] = [entry.new_tag for entry in program]
    rewrites.append(None)
    # Claims ahead of every wildcard need no wildcard scan.
    unshadowed = wildcards[0][0] if wildcards else never + 1

    def wildcard_rewrite(key: MatchKey, claim: int) -> Optional[int]:
        for index, wildcard in wildcards:
            if index > claim:
                break
            if key[1] in wildcard.in_ports and key[2] in wildcard.out_ports:
                return wildcard.new_tag
        return rewrites[claim]

    # (key, first-match rewrite, reference rewrite), in check order.
    diverging: List[Tuple[MatchKey, Optional[int], int]] = []
    claimed = 0
    for key, expected in sorted(reference.items()):
        claim = claims.get(key, never)
        if claim < never:
            claimed += 1
        got = rewrites[claim] if claim < unshadowed else wildcard_rewrite(key, claim)
        if (LOSSY_TAG if got is None else got) != expected:
            diverging.append((key, got, expected))
    if claimed < len(claims):  # some entry lists a key the reference lacks
        for key, claim in claims.items():
            if key in reference:
                continue
            got = rewrites[claim] if claim < unshadowed else wildcard_rewrite(key, claim)
            if got is not None and got != LOSSY_TAG:
                diverging.append((key, got, LOSSY_TAG))
    if diverging:
        key, got, expected = diverging[0]
        diagnostics.append(
            make_diagnostic(
                "S104",
                f"{len(diverging)} match key(s) diverge from the exact-rule "
                f"reference, e.g. key {key}: program gives "
                f"{'no match' if got is None else got}, "
                f"reference rules give {expected}",
            )
        )


def _check_safeguard(
    program: Sequence[TcamEntry],
    ports: AbstractSet[int],
    diagnostics: List[Diagnostic],
) -> None:
    """S105: the last entry must be a catch-all demote over all ports."""
    if not program:
        diagnostics.append(
            make_diagnostic(
                "S105",
                "empty TCAM program: no safeguard default installed",
            )
        )
        return
    last = program[-1]
    if (
        last.tag is not None
        or last.new_tag != LOSSY_TAG
        or not ports <= last.in_ports
        or not ports <= last.out_ports
    ):
        diagnostics.append(
            make_diagnostic(
                "S105",
                "final entry is not a catch-all lossy demote over every "
                "port; unmatched packets keep an undefined tag",
                location=_entry_location(len(program) - 1, last),
            )
        )


@dataclass(frozen=True)
class ProgramSection:
    """An ordered program and its S101-S105 findings, naming no switch."""

    program: Sequence[TcamEntry]
    diagnostics: Tuple[Diagnostic, ...]


def program_section(
    reference: Mapping[MatchKey, int],
    program: Sequence[TcamEntry],
    ports: AbstractSet[int],
) -> ProgramSection:
    """Per-switch stage: check ``program`` as the hardware would read it,
    against the exact-match ``reference`` rules and the switch's
    ``ports``."""
    diagnostics: List[Diagnostic] = []
    _check_order(program, diagnostics)
    _check_roundtrip(reference, program, diagnostics)
    _check_safeguard(program, ports, diagnostics)
    return ProgramSection(program=program, diagnostics=tuple(diagnostics))


def check_tcam(
    topo_ports: Mapping[str, AbstractSet[int]],
    tables: Mapping[str, RuleTable],
    programs: Mapping[str, Sequence[TcamEntry]],
    sections: Optional[Mapping[str, ProgramSection]] = None,
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """Run the S-family checks on every switch's ordered program.

    ``sections`` are the programs' per-switch sections when the caller
    already holds them; otherwise built here.
    """
    diagnostics: List[Diagnostic] = []
    total_entries = 0
    for switch in sorted(programs):
        section = (
            sections[switch]
            if sections is not None
            else program_section(
                tables[switch].rules if switch in tables else {},
                programs[switch],
                topo_ports.get(switch, frozenset()),
            )
        )
        total_entries += len(section.program)
        diagnostics.extend(stamp(section.diagnostics, switch))
    return diagnostics, {"tcam_entries": total_entries}
