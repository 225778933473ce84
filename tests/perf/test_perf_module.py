"""Unit tests for the stage timer (repro.perf)."""

import pytest

from repro.perf import StageTimer


def test_stage_timer_accumulates_and_orders():
    timer = StageTimer()
    with timer.stage("elp"):
        pass
    with timer.stage("minimize"):
        pass
    with timer.stage("elp"):  # re-entry accumulates, keeps first position
        pass
    timings = timer.timings()
    assert list(timings) == ["elp", "minimize"]
    assert all(v >= 0.0 for v in timings.values())
    assert "elp" in timer and "verify" not in timer
    assert timer.total == pytest.approx(sum(timings.values()))


def test_stage_timer_records_even_when_block_raises():
    timer = StageTimer()
    with pytest.raises(RuntimeError):  # noqa: SIM117
        with timer.stage("verify"):
            raise RuntimeError("boom")
    assert "verify" in timer


def test_stage_timer_manual_add():
    timer = StageTimer()
    timer.add("apply-delta", 0.25)
    timer.add("apply-delta", 0.25)
    assert timer.timings() == {"apply-delta": 0.5}
    assert "apply-delta=500.0ms" in repr(timer)
