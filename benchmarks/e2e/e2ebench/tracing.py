"""In-memory spans around calls into each layer, and profile bucketing.

A span is ``(name, start, end, parent, op)``; its name is the layer
metric it feeds (``"deploy.certify"`` -> ``deploy.certify_s``), and the
first dotted component is the layer, i.e. the ``repro`` module. Stage
timings a layer already returns (``StageTimer``, ``RolloutReport.
timings``, ``ReplanResult.timings``) are laid out as child spans of the
call that produced them instead of being measured a second time.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stands in for :class:`Tracer` on untraced repetitions."""

    enabled = False

    def span(self, name: str) -> "contextlib.AbstractContextManager[None]":
        return contextlib.nullcontext()

    def stages(self, parent: Any, prefix: str, timings: Mapping[str, float]) -> None:
        pass


class Tracer:
    """Records spans; optionally profiles the ``simulator.run`` spans.

    With a ``profiler`` the tracer is used for the separate profile
    pass: cProfile is enabled only while a ``simulator.run`` span is
    open, so its slowdown lands in that pass's numbers and nowhere else.
    """

    enabled = True

    def __init__(self, profiler: Optional[cProfile.Profile] = None) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self.profiler = profiler
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, 0.0, 0.0, parent, self.op)
        self._open.append(span.index)
        self.spans.append(span)
        profile = self.profiler is not None and name == "simulator.run"
        span.start = time.perf_counter()
        if profile:
            self.profiler.enable()
        try:
            yield span
        finally:
            if profile:
                self.profiler.disable()
            span.end = time.perf_counter()
            self._open.pop()

    def stages(self, parent: Span, prefix: str, timings: Mapping[str, float]) -> None:
        """Lay ``timings`` out end to end as children of ``parent``."""
        cursor = parent.start
        for stage, seconds in timings.items():
            self.spans.append(
                Span(
                    len(self.spans), f"{prefix}.{stage}",
                    cursor, cursor + seconds, parent.index, parent.op,
                )
            )
            cursor += seconds

    # ------------------------------------------------------------------
    def seconds_by_name(self, op: int) -> Dict[str, float]:
        """Total seconds per span name inside operation ``op``."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.op == op:
                totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals

    def covered_seconds(self, op: int) -> float:
        """Seconds of operation ``op`` covered by its top-level spans."""
        return sum(
            span.seconds
            for span in self.spans
            if span.op == op and span.parent is None
        )

    def to_json(self) -> List[Dict[str, Any]]:
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {
                "name": span.name,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": span.parent,
                "op": span.op,
            }
            for span in self.spans
        ]


#: Source files of ``repro.simulator`` reported one by one.
SIMULATOR_FILES = (
    "engine", "switch", "txport", "buffers", "host", "network",
    "pfc", "packet", "metrics", "detection", "deadlock",
)


def _bucket(filename: str) -> str:
    """Profile bucket of a source file: a simulator file, a package, or other."""
    _, found, tail = filename.replace(os.sep, "/").rpartition("/repro/")
    package, _, rest = tail.partition("/")
    if found and package == "simulator":
        stem = rest[:-3] if rest.endswith(".py") else rest
        return f"simulator.{stem}" if stem in SIMULATOR_FILES else "other"
    if found and package in ("detect", "obs"):
        return package
    return "other"


def profile_buckets(profiler: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Self time share and call count per bucket of a finished profile.

    Time inside C builtins (``heappush``, ``deque.append`` ...) has no
    source file; it is charged to the file that called them, so a file's
    share is what disappears if that file's code gets cheaper.
    """
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    seconds: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    for (filename, _line, _func), (_cc, ncalls, self_time, _ct, callers) in stats.items():
        if filename.startswith("~") or filename.startswith("<"):
            for (caller_file, _cl, _cf), (_nc, _ccc, caller_self, _cct) in callers.items():
                bucket = _bucket(caller_file)
                seconds[bucket] = seconds.get(bucket, 0.0) + caller_self
            continue
        bucket = _bucket(filename)
        seconds[bucket] = seconds.get(bucket, 0.0) + self_time
        calls[bucket] = calls.get(bucket, 0.0) + ncalls
    total = sum(seconds.values()) or 1.0
    return {
        bucket: {"share": seconds.get(bucket, 0.0) / total, "calls": calls.get(bucket, 0.0)}
        for bucket in set(seconds) | set(calls)
    }
