"""Tests for ingress accounting and PFC thresholds."""

import pytest

from repro.simulator import SimConfig
from repro.simulator.buffers import IngressAccounting

from .reference_stack import ReferenceAccounting


@pytest.fixture
def config():
    return SimConfig(
        xoff_bytes=10_000,
        xon_bytes=6_000,
        headroom_bytes=5_000,
        lossy_cap_bytes=8_000,
    )


@pytest.fixture
def accounting(config):
    return IngressAccounting(config)


class TestLosslessAccounting:
    def test_pause_on_xoff_crossing(self, accounting):
        first = accounting.charge(0, 1, 9_000)
        assert first.accepted and not first.send_pause
        second = accounting.charge(0, 1, 2_000)
        assert second.accepted and second.send_pause

    def test_pause_sent_once(self, accounting):
        accounting.charge(0, 1, 11_000)
        again = accounting.charge(0, 1, 1_000)
        assert not again.send_pause

    def test_resume_on_xon_crossing(self, accounting):
        accounting.charge(0, 1, 12_000)
        partial = accounting.release(0, 1, 2_000)  # at 10_000, above xon
        assert not partial.send_resume
        final = accounting.release(0, 1, 5_000)  # at 5_000, below xon
        assert final.send_resume

    def test_drop_beyond_headroom_cap(self, accounting, config):
        accounting.charge(0, 1, config.lossless_cap_bytes)
        overflow = accounting.charge(0, 1, 1)
        assert not overflow.accepted
        # Occupancy unchanged by the rejected packet.
        assert accounting.occupancy_of(0, 1) == config.lossless_cap_bytes

    def test_accounts_are_independent(self, accounting):
        accounting.charge(0, 1, 11_000)
        other_port = accounting.charge(1, 1, 1_000)
        other_queue = accounting.charge(0, 2, 1_000)
        assert not other_port.send_pause
        assert not other_queue.send_pause

    def test_release_underflow_asserts(self, accounting):
        accounting.charge(0, 1, 100)
        with pytest.raises(AssertionError):
            accounting.release(0, 1, 200)


class TestLossyAccounting:
    def test_lossy_never_pauses(self, accounting):
        result = accounting.charge(0, 0, 7_999)
        assert result.accepted and not result.send_pause

    def test_lossy_tail_drop(self, accounting, config):
        accounting.charge(0, 0, config.lossy_cap_bytes)
        overflow = accounting.charge(0, 0, 1)
        assert not overflow.accepted

    def test_lossy_release_never_resumes(self, accounting):
        accounting.charge(0, 0, 5_000)
        result = accounting.release(0, 0, 5_000)
        assert not result.send_resume


class TestIntrospection:
    def test_total_and_paused_accounts(self, accounting):
        accounting.charge(0, 1, 12_000)
        accounting.charge(1, 1, 500)
        assert accounting.total_bytes == 12_500
        paused = accounting.paused_accounts()
        assert list(paused) == [(0, 1)]
        assert paused[(0, 1)] == 12_000


class TestVectorAccountingDifferential:
    """The flat-list accounting must be decision-identical to the reference.

    A seeded random charge/release stream is replayed against
    ``IngressAccounting`` and the dict-keyed ``ReferenceAccounting`` and every decision, occupancy and pause flag is
    compared step by step — in static and in dynamic-threshold mode.
    """

    def _dynamic_config(self):
        return SimConfig(
            dynamic_thresholds=True,
            dt_alpha=1.0,
            shared_buffer_bytes=100_000,
            dt_xon_offset_bytes=10_000,
            dt_floor_bytes=5_000,
            xoff_bytes=40_000,
            xon_bytes=30_000,
            headroom_bytes=20_000,
            lossy_cap_bytes=8_000,
        )

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_stream_identical(self, config, mode, seed):
        import random

        cfg = config if mode == "static" else self._dynamic_config()
        ref = ReferenceAccounting(cfg)
        fast = IngressAccounting(cfg)
        rng = random.Random(seed)
        # Track per-account occupancy so releases never underflow.
        held = {}
        for step in range(2_000):
            port = rng.randrange(0, 4)
            queue = rng.randrange(0, 3)
            key = (port, queue)
            if rng.random() < 0.55 or not held.get(key):
                size = rng.randrange(1, 4_000)
                a = ref.charge(port, queue, size)
                b = fast.charge(port, queue, size)
                if a.accepted:
                    held[key] = held.get(key, 0) + size
            else:
                size = rng.randrange(1, held[key] + 1)
                a = ref.release(port, queue, size)
                b = fast.release(port, queue, size)
                held[key] -= size
            assert (a.accepted, a.send_pause, a.send_resume) == (
                b.accepted,
                b.send_pause,
                b.send_resume,
            ), f"step {step}: {mode} seed {seed} diverged on {key}"
            assert ref.occupancy_of(port, queue) == fast.occupancy_of(
                port, queue
            )
            assert ref.lossless_total == fast.lossless_total
        assert ref.total_bytes == fast.total_bytes
        assert ref.paused_accounts() == fast.paused_accounts()

    def test_underflow_message_matches_reference(self, config):
        ref = ReferenceAccounting(config)
        fast = IngressAccounting(config)
        ref.charge(2, 1, 100)
        fast.charge(2, 1, 100)
        with pytest.raises(AssertionError) as exc_ref:
            ref.release(2, 1, 200)
        with pytest.raises(AssertionError) as exc_fast:
            fast.release(2, 1, 200)
        assert str(exc_ref.value) == str(exc_fast.value)

    def test_grows_past_initial_stride(self, config):
        fast = IngressAccounting(config)
        result = fast.charge(40, 1, 1_000)  # far beyond the initial arena
        assert result.accepted
        assert fast.occupancy_of(40, 1) == 1_000
        assert fast.occupancy_of(39, 1) == 0
