"""B-family checks: hardware budgets and queue-fit consistency.

- **B301** per-switch TCAM entry budget: the compressed program that
  actually ships must fit the ASIC's table (paper §7 reports entry
  counts precisely because this is the deployment bottleneck);
- **B302** queue fit: every *live* lossless tag (see
  :mod:`repro.lint.reach_checks`) must map to a lossless priority
  queue — a live tag landing in the lossy queue silently revokes the
  no-drop guarantee for every packet carrying it.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Set

from repro.core.compression import TcamEntry
from repro.core.pipeline import QueueMap
from repro.lint.diagnostics import Diagnostic, make_diagnostic


def check_budget(
    programs: Mapping[str, Sequence[TcamEntry]],
    tcam_budget: Optional[int],
) -> List[Diagnostic]:
    """B301 on every switch's program; no-op when no budget is set."""
    diagnostics: List[Diagnostic] = []
    if tcam_budget is None:
        return diagnostics
    for switch in sorted(programs):
        used = len(programs[switch])
        if used > tcam_budget:
            diagnostics.append(
                make_diagnostic(
                    "B301",
                    f"{used} TCAM entries exceed the per-switch budget of "
                    f"{tcam_budget}",
                    switch=switch,
                    location=f"{used}/{tcam_budget} entries",
                )
            )
    return diagnostics


def check_queue_fit(
    live_tags: Set[int], queue_map: Optional[QueueMap]
) -> List[Diagnostic]:
    """B302: every live lossless tag maps to a lossless priority."""
    diagnostics: List[Diagnostic] = []
    if queue_map is None:
        return diagnostics
    for tag in sorted(live_tags):
        if not queue_map.is_lossless(tag):
            diagnostics.append(
                make_diagnostic(
                    "B302",
                    f"live tag {tag} maps to the lossy queue; packets "
                    "carrying it lose the no-drop guarantee mid-path",
                    location=f"tag {tag}",
                )
            )
    return diagnostics
