"""Ingress buffer accounting and PFC threshold logic.

PFC is an *ingress* mechanism: a switch counts, per (ingress port,
priority), the bytes currently held for packets that arrived there (the
packets themselves may be waiting in egress queues — they stay charged to
their ingress account until they leave the switch). When an account
crosses XOFF the switch pauses the upstream neighbor for that priority;
when it drains to XON it resumes it. The hard cap (``xoff + headroom``)
models the physically reserved headroom: a lossless packet arriving above
the cap is dropped, which can only happen when PFC is misconfigured —
e.g. the Fig. 8a priority-transition bug.

Accounts live in flat parallel lists (no tuple hashing, no dict growth
per packet) and the switch datapath reads int result codes instead of
allocating a :class:`CrossingResult` per packet;
``tests/simulator/reference_stack.py`` keeps the dict-keyed accounting
the equivalence suite and ``tests/simulator/test_buffers.py`` diff this
one against, decision by decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.pipeline import LOSSY_QUEUE
from repro.simulator.packet import SimConfig

AccountKey = Tuple[int, int]  # (ingress port, priority queue)

# Int result codes of the allocation-free entry points.
CHARGE_ACCEPT = 0
CHARGE_ACCEPT_PAUSE = 1
CHARGE_REJECT = 2
RELEASE_KEEP = 0
RELEASE_RESUME = 1


@dataclass
class CrossingResult:
    """What a charge/release did to the PFC state of one account."""

    accepted: bool = True
    send_pause: bool = False
    send_resume: bool = False


class IngressAccounting:
    """Per-switch ingress byte accounting with XOFF/XON detection.

    Two threshold modes:

    - **static** (default): fixed XOFF/XON per account;
    - **dynamic** (``config.dynamic_thresholds``): Broadcom-style alpha
      thresholds — XOFF shrinks as the switch's shared lossless pool
      fills, XON follows at a fixed offset. Under sustained pressure
      every account on the switch pauses earlier and resumes later.

    Account ``(port, queue)`` lives at index ``port * 16 + queue``.
    The switch datapath calls the int-code entry points
    (:meth:`charge_code` / :meth:`release_code`); :meth:`charge` /
    :meth:`release` wrap them for the callers that want a
    :class:`CrossingResult` (queue drains on link failure, watchdog,
    recovery).
    """

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.lossless_total = 0
        # Queue indexes are PFC priorities (0..8 in practice); a
        # power-of-two stride keeps the flat index a shift+add.
        self._stride = 16
        self._occ: List[int] = [0] * (16 * 8)
        self._paused: List[bool] = [False] * (16 * 8)
        # Static-mode thresholds never move; skip the property calls.
        self._static = not config.dynamic_thresholds
        self._xoff = config.xoff_bytes
        self._xon = config.xon_bytes
        self._cap_bytes = config.xoff_bytes + config.headroom_bytes
        self._lossy_cap = config.lossy_cap_bytes

    def _grow(self, idx: int) -> None:
        need = idx + 1 - len(self._occ)
        self._occ.extend([0] * need)
        self._paused.extend([False] * need)

    # ------------------------------------------------------------------
    # Thresholds
    # ------------------------------------------------------------------
    def current_xoff(self) -> int:
        """The XOFF threshold in force right now (same for all accounts)."""
        if not self.config.dynamic_thresholds:
            return self.config.xoff_bytes
        free = self.config.shared_buffer_bytes - self.lossless_total
        dynamic = int(self.config.dt_alpha * free)
        return max(
            self.config.dt_floor_bytes, min(self.config.xoff_bytes, dynamic)
        )

    def current_xon(self) -> int:
        if not self.config.dynamic_thresholds:
            return self.config.xon_bytes
        return max(0, self.current_xoff() - self.config.dt_xon_offset_bytes)

    # ------------------------------------------------------------------
    # Charge / release
    # ------------------------------------------------------------------
    def charge_code(self, port: int, queue: int, size: int) -> int:
        """Account an arriving packet; decide drops and PAUSE generation.

        Lossy queues tail-drop at ``lossy_cap_bytes`` and never pause.
        Lossless queues pause upstream at XOFF and drop only beyond the
        headroom cap (a config-error signal, counted by the caller).
        """
        idx = port * self._stride + queue
        occ_list = self._occ
        try:
            occ = occ_list[idx]
        except IndexError:
            self._grow(idx)
            occ = 0
        if queue == LOSSY_QUEUE:
            if occ + size > self._lossy_cap:
                return CHARGE_REJECT
            occ_list[idx] = occ + size
            return CHARGE_ACCEPT
        if self._static:
            if occ + size > self._cap_bytes:
                return CHARGE_REJECT
            occ_list[idx] = occ + size
            self.lossless_total += size
            if occ + size >= self._xoff and not self._paused[idx]:
                self._paused[idx] = True
                return CHARGE_ACCEPT_PAUSE
            return CHARGE_ACCEPT
        # Dynamic thresholds: the cap uses the pre-charge pool level,
        # the XOFF test the post-charge level (the charge itself shrinks
        # every account's threshold).
        if occ + size > self.current_xoff() + self.config.headroom_bytes:
            return CHARGE_REJECT
        occ_list[idx] = occ + size
        self.lossless_total += size
        if occ + size >= self.current_xoff() and not self._paused[idx]:
            self._paused[idx] = True
            return CHARGE_ACCEPT_PAUSE
        return CHARGE_ACCEPT

    def release_code(self, port: int, queue: int, size: int) -> int:
        """Release bytes when a packet leaves the switch; maybe RESUME."""
        idx = port * self._stride + queue
        occ_list = self._occ
        try:
            occ = occ_list[idx]
        except IndexError:
            self._grow(idx)
            occ = 0
        if size > occ:
            raise AssertionError(
                f"ingress accounting underflow on {(port, queue)}: {occ} - {size}"
            )
        occ_list[idx] = occ - size
        if queue == LOSSY_QUEUE:
            return RELEASE_KEEP
        self.lossless_total -= size
        if self._paused[idx]:
            xon = self._xon if self._static else self.current_xon()
            if occ - size <= xon:
                self._paused[idx] = False
                return RELEASE_RESUME
        return RELEASE_KEEP

    def charge(self, port: int, queue: int, size: int) -> CrossingResult:
        """:meth:`charge_code` as a :class:`CrossingResult`."""
        code = self.charge_code(port, queue, size)
        return CrossingResult(
            accepted=code != CHARGE_REJECT,
            send_pause=code == CHARGE_ACCEPT_PAUSE,
        )

    def release(self, port: int, queue: int, size: int) -> CrossingResult:
        """:meth:`release_code` as a :class:`CrossingResult`."""
        code = self.release_code(port, queue, size)
        return CrossingResult(send_resume=code == RELEASE_RESUME)

    def occupancy_of(self, port: int, queue: int) -> int:
        idx = port * self._stride + queue
        if idx >= len(self._occ):
            return 0
        return self._occ[idx]

    @property
    def total_bytes(self) -> int:
        return sum(self._occ)

    def paused_accounts(self) -> Dict[AccountKey, int]:
        """Accounts currently holding an outstanding PAUSE upstream."""
        stride = self._stride
        return {
            (idx // stride, idx % stride): self._occ[idx]
            for idx, sent in enumerate(self._paused)
            if sent
        }
