"""Cost guard for the telemetry emit path, as a call count.

The golden square4 walkthrough (``tests/golden``) is run under
``cProfile`` and the Python calls made in ``repro/obs/*.py`` are divided
by the events the bus emitted. The count is deterministic, so the guard
needs no wall clock: an emit path that goes back to a facade hop, a
per-event validator walk or a per-packet registry update per event
fails here before any benchmark sees it.
"""

import cProfile
import os
import pstats

from ..golden.test_golden_telemetry import run_walkthrough

#: Ceiling on ``repro/obs`` calls per emitted event. The bus serves a
#: known event shape in one ``emit`` call; the per-run registry fold and
#: the first sighting of each shape add a fraction. A facade hop, a
#: validator walk and a counter update per event cost about 10.
MAX_OBS_CALLS_PER_EVENT = 5


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
