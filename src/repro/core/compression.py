"""TCAM rule compression via port-bitmap masking (paper §7, Fig. 9).

Commodity ASICs represent ingress/egress ports in TCAM as *bitmaps*, so a
single entry can match an arbitrary **set** of ports. Rules that share a
tag and rewrite action therefore compress:

1. *In-port aggregation*: rules identical except for InPort merge into one
   entry whose in-port bitmap is the union — per-switch rule count drops
   from ``O(n^2 m^2)`` to ``O(n m^2)`` (n ports, m tags).
2. *Joint aggregation*: entries that then share the same in-port set merge
   their out-ports too. Both steps preserve semantics exactly, because
   each compressed entry covers a full cartesian product
   ``in_ports x out_ports`` of original rules.

:func:`expand` inverts the compression (used by the round-trip property
tests).

An installed switch program is an *ordered* entry list with first-match
semantics and a trailing wildcard safeguard that demotes everything the
explicit entries miss (paper footnote 3). :func:`tcam_program` builds
one from a rule table, :func:`first_match` evaluates it exactly the way
the hardware would, and the deployment linter (:mod:`repro.lint`)
certifies arbitrary programs against their exact-rule reference. The
linter evaluates every key in one ordered pass over the program;
:func:`first_match`, one key at a time, is its oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.rules import MatchActionRule, MatchKey, RuleTable
from repro.core.tags import LOSSY_TAG
from repro.exceptions import RuleError


@dataclass(frozen=True)
class TcamEntry:
    """One TCAM entry: bitmap match on ports, exact match on tag.

    ``in_ports`` / ``out_ports`` are frozen sets of port numbers (the
    bitmap abstraction); ``new_tag`` is the rewrite result. ``tag`` may
    be ``None``, the wildcard: the entry then matches *any* tag — that is
    how the trailing safeguard default is expressed in hardware.
    """

    tag: Optional[int]
    in_ports: FrozenSet[int]
    out_ports: FrozenSet[int]
    new_tag: int

    @property
    def is_wildcard(self) -> bool:
        return self.tag is None

    def matches(self, tag: int, in_port: int, out_port: int) -> bool:
        return (
            (self.tag is None or tag == self.tag)
            and in_port in self.in_ports
            and out_port in self.out_ports
        )

    @property
    def covered_rules(self) -> int:
        return len(self.in_ports) * len(self.out_ports)

    def in_port_bitmap(self, width: int) -> int:
        """The entry's in-port bitmap as an integer (bit i = port i)."""
        return _bitmap(self.in_ports, width)

    def out_port_bitmap(self, width: int) -> int:
        return _bitmap(self.out_ports, width)


def _bitmap(ports: Iterable[int], width: int) -> int:
    value = 0
    for port in ports:
        if port >= width:
            raise RuleError(f"port {port} exceeds bitmap width {width}")
        value |= 1 << port
    return value


def _rule_items(
    rules: Iterable[MatchActionRule],
) -> Iterator[Tuple[MatchKey, int]]:
    return ((rule.key, rule.new_tag) for rule in rules)


def _group_in_ports(
    items: Iterable[Tuple[MatchKey, int]],
) -> Dict[Tuple[int, int, int], Set[int]]:
    """Stage-1 grouping: ``(tag, out_port, new_tag) -> in-port set``."""
    grouped: Dict[Tuple[int, int, int], Set[int]] = {}
    for (tag, in_port, out_port), new_tag in items:
        group = grouped.get((tag, out_port, new_tag))
        if group is None:
            grouped[(tag, out_port, new_tag)] = {in_port}
        else:
            group.add(in_port)
    return grouped


def _joint_entries(items: Iterable[Tuple[MatchKey, int]]) -> List[TcamEntry]:
    """Joint compression of ``(match key, new_tag)`` pairs, sorted by
    :func:`_entry_key` — the one routine behind :func:`compress_joint`
    and :func:`tcam_program`."""
    grouped: Dict[Tuple[int, int, FrozenSet[int]], Set[int]] = {}
    for (tag, out_port, new_tag), in_ports in _group_in_ports(items).items():
        grouped.setdefault((tag, new_tag, frozenset(in_ports)), set()).add(
            out_port
        )
    entries = [
        TcamEntry(
            tag=tag,
            in_ports=in_ports,
            out_ports=frozenset(out_ports),
            new_tag=new_tag,
        )
        for (tag, new_tag, in_ports), out_ports in grouped.items()
    ]
    return sorted(entries, key=_entry_key)


def compress_in_ports(rules: Sequence[MatchActionRule]) -> List[TcamEntry]:
    """Stage-1 compression: aggregate InPorts per (tag, out_port, new_tag)."""
    entries = [
        TcamEntry(
            tag=tag,
            in_ports=frozenset(in_ports),
            out_ports=frozenset({out_port}),
            new_tag=new_tag,
        )
        for (tag, out_port, new_tag), in_ports in _group_in_ports(
            _rule_items(rules)
        ).items()
    ]
    return sorted(entries, key=_entry_key)


def compress_joint(rules: Sequence[MatchActionRule]) -> List[TcamEntry]:
    """Stage-2 compression: in-port aggregation, then merge equal in-sets.

    Stage-1 groups sharing ``(tag, new_tag, in_ports)`` merge their
    out-ports; the result still covers an exact cartesian product, so
    semantics are unchanged.
    """
    return _joint_entries(_rule_items(rules))


def _entry_key(entry: TcamEntry) -> Tuple[int, int, int, List[int], List[int]]:
    # Wildcard (safeguard) entries sort last: in an ordered program they
    # must sit behind every explicit entry.
    return (
        1 if entry.tag is None else 0,
        entry.tag if entry.tag is not None else 0,
        entry.new_tag,
        sorted(entry.in_ports),
        sorted(entry.out_ports),
    )


def expand(entries: Sequence[TcamEntry]) -> List[MatchActionRule]:
    """Invert compression back to exact-match rules (sorted, deduplicated).

    Wildcard-tag entries that demote (safeguard defaults) are skipped —
    they carry no lossless rule; any other wildcard entry is rejected, as
    it has no finite exact-rule expansion. Raises :class:`RuleError` if
    two entries overlap with different actions — compressed tables
    produced by this module never do.
    """
    seen: Dict[Tuple[int, int, int], int] = {}
    for entry in entries:
        if entry.tag is None:
            if entry.new_tag == LOSSY_TAG:
                continue  # safeguard default: implicit in RuleTable.lookup
            raise RuleError(
                "cannot expand a wildcard-tag entry with a lossless rewrite"
            )
        for in_port in entry.in_ports:
            for out_port in entry.out_ports:
                key = (entry.tag, in_port, out_port)
                previous = seen.get(key)
                if previous is not None and previous != entry.new_tag:
                    raise RuleError(
                        f"ambiguous TCAM entries for match {key}: "
                        f"{previous} vs {entry.new_tag}"
                    )
                seen[key] = entry.new_tag
    return sorted(
        (
            MatchActionRule(tag, in_port, out_port, new_tag)
            for (tag, in_port, out_port), new_tag in seen.items()
        ),
        key=lambda r: r.key,
    )


@dataclass(frozen=True)
class CompressionStats:
    """Rule counts at each compression stage for one switch."""

    switch: str
    uncompressed: int
    in_port_aggregated: int
    joint_aggregated: int

    @property
    def ratio(self) -> float:
        if self.uncompressed == 0:
            return 1.0
        return self.joint_aggregated / self.uncompressed


def compression_stats(table: RuleTable) -> CompressionStats:
    """Measure all compression stages on one switch's rule table."""
    rules = table.as_rules()
    return CompressionStats(
        switch=table.switch,
        uncompressed=len(rules),
        in_port_aggregated=len(compress_in_ports(rules)),
        joint_aggregated=len(compress_joint(rules)),
    )


# ----------------------------------------------------------------------
# Ordered programs (what actually ships to a switch)
# ----------------------------------------------------------------------
def safeguard_entry(ports: Iterable[int]) -> TcamEntry:
    """The catch-all final entry: any tag, any port pair, demote to lossy."""
    port_set = frozenset(ports)
    return TcamEntry(
        tag=None, in_ports=port_set, out_ports=port_set, new_tag=LOSSY_TAG
    )


def tcam_program(table: RuleTable, ports: Iterable[int]) -> List[TcamEntry]:
    """Ordered first-match TCAM program for one switch.

    Joint-compressed entries (mutually non-overlapping, so their relative
    order is free) followed by the wildcard safeguard over ``ports`` —
    "this rule is always the last one in the TCAM rule list" (paper
    footnote 3). Compiled straight from the table's rule dict: the
    entries and their order equal ``compress_joint(table.as_rules())``.
    """
    return _joint_entries(table.rules.items()) + [safeguard_entry(ports)]


def first_match(
    entries: Sequence[TcamEntry], tag: int, in_port: int, out_port: int
) -> Optional[int]:
    """Evaluate an ordered program the way hardware does.

    Returns the rewrite of the first matching entry, or ``None`` when no
    entry matches at all (a program missing its safeguard default).
    """
    for entry in entries:
        if entry.matches(tag, in_port, out_port):
            return entry.new_tag
    return None
