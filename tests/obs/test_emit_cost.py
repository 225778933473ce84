"""Cost guard for the telemetry emit path, as a call count.

The golden square4 walkthrough (``tests/golden``) is run under
``cProfile`` and the Python calls made in ``repro/obs/*.py`` are divided
by the events the bus built. The count is deterministic, so the guard
needs no wall clock: an emit path that goes back to a facade hop, a
per-event validator walk or a per-packet registry update per event
fails here before any benchmark sees it.

The walkthrough's golden run opts in to per-packet events. The default
attachment is guarded too: it must build no event per healthy packet,
count those packets exactly all the same, and cost about the memory of
a detached run (``tracemalloc``, also clock-free).
"""

import cProfile
import gc
import os
import pstats
import tracemalloc

from repro.obs import Telemetry
from repro.obs.events import EV_SIM_DELIVER, EV_SIM_INJECT

from ..golden.test_golden_telemetry import run_square4, run_walkthrough

#: Ceiling on ``repro/obs`` calls per built event. The bus serves a
#: known event shape in one ``emit`` call; the per-run registry fold and
#: the first sighting of each shape add a fraction. A facade hop, a
#: validator walk and a counter update per event cost about 10.
MAX_OBS_CALLS_PER_EVENT = 5

#: Ceiling, in bytes, on the default attachment's ``tracemalloc`` peak
#: over the detached run's. It reads about 7 300 B; the opt-in
#: per-packet stream costs about +30 % of the whole run.
MAX_ATTACHED_EXTRA_BYTES = 9_000


def _obs_calls(profile: cProfile.Profile) -> int:
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    marker = os.sep.join(("", "repro", "obs", ""))
    return sum(
        ncalls
        for (filename, _line, _func), (_cc, ncalls, *_rest) in stats.items()
        if marker in filename
    )


def test_obs_calls_per_emitted_event_stay_bounded():
    profile = cProfile.Profile()
    profile.enable()
    try:
        telemetry = run_walkthrough()
    finally:
        profile.disable()
    emitted = telemetry.bus.total_emitted
    assert emitted > 300  # the walkthrough really ran with telemetry on
    per_event = _obs_calls(profile) / emitted
    assert per_event <= MAX_OBS_CALLS_PER_EVENT, (
        f"{per_event:.2f} repro/obs calls per emitted event "
        f"(ceiling {MAX_OBS_CALLS_PER_EVENT})"
    )


def _traced_peak(telemetry):
    """``tracemalloc`` peak bytes of one walkthrough run."""
    gc.collect()
    tracemalloc.start()
    try:
        run_square4(telemetry)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_default_attachment_builds_no_packet_event():
    profile = cProfile.Profile()
    profile.enable()
    try:
        telemetry = Telemetry()
        net = run_square4(telemetry)
    finally:
        profile.disable()
    bus = telemetry.bus
    assert not [e for e in bus.events() if e.kind.startswith("sim.packet.")]
    injected = sum(net.metrics.injected_packets.values())
    delivered = sum(net.metrics.delivered_packets.values())
    assert injected > 100 and delivered > 100
    assert bus.count(EV_SIM_INJECT) == injected
    assert bus.count(EV_SIM_DELIVER) == delivered
    assert bus.stats()["folded"] == injected + delivered
    built = bus.total_emitted - bus.folded
    assert built == len(bus) > 0  # the PFC story is still in the ring
    per_event = _obs_calls(profile) / built
    assert per_event <= MAX_OBS_CALLS_PER_EVENT, (
        f"{per_event:.2f} repro/obs calls per built event "
        f"(ceiling {MAX_OBS_CALLS_PER_EVENT})"
    )


def test_default_attachment_costs_about_a_detached_run():
    run_square4(None)  # warm imports and caches out of the measurement
    detached = _traced_peak(None)
    attached = _traced_peak(Telemetry())
    extra = attached - detached
    assert extra <= MAX_ATTACHED_EXTRA_BYTES, (
        f"default Telemetry() peaks {extra} B above the detached run's "
        f"{detached} B (ceiling {MAX_ATTACHED_EXTRA_BYTES} B)"
    )
