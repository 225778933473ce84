"""Tests for the metrics recorder and PFC log."""

import pytest

from repro.simulator import MetricsRecorder
from repro.simulator.pfc import PauseState, PfcLog


class TestRates:
    def test_rate_series_with_gaps(self):
        metrics = MetricsRecorder(bucket_width=0.001)
        metrics.record_delivery(0.0005, flow_id=1, size=1000)
        metrics.record_delivery(0.0025, flow_id=1, size=1000)
        series = metrics.rate_series(1, start=0.0, end=0.003)
        assert len(series) == 3
        rates = [rate for _, rate in series]
        assert rates[0] == pytest.approx(8e6)
        assert rates[1] == 0.0  # gap shows as zero, not missing
        assert rates[2] == pytest.approx(8e6)

    def test_mean_rate(self):
        metrics = MetricsRecorder(bucket_width=0.001)
        for i in range(10):
            metrics.record_delivery(i * 0.001, flow_id=1, size=1000)
        assert metrics.mean_rate(1, 0.0, 0.01) == pytest.approx(8e6)
        assert metrics.mean_rate(1, 0.02, 0.03) == 0.0
        assert metrics.mean_rate(1, 0.01, 0.01) == 0.0

    def test_unknown_flow_is_silent_zero(self):
        metrics = MetricsRecorder()
        assert metrics.mean_rate(42, 0.0, 1.0) == 0.0
        assert metrics.rate_series(42) == []


class TestLatency:
    def test_latency_stats(self):
        metrics = MetricsRecorder()
        for i, delay in enumerate((0.001, 0.002, 0.003, 0.010)):
            metrics.record_delivery(
                time=1.0 + delay, flow_id=7, size=1000, created_at=1.0
            )
        stats = metrics.latency_stats(7)
        assert stats.count == 4
        assert stats.maximum == pytest.approx(0.010)
        assert stats.p50 == pytest.approx(0.002)
        assert stats.p99 == pytest.approx(0.010)
        assert stats.mean == pytest.approx((0.001 + 0.002 + 0.003 + 0.010) / 4)

    def test_no_samples_returns_none(self):
        metrics = MetricsRecorder()
        metrics.record_delivery(0.0, flow_id=1, size=10)  # no created_at
        assert metrics.latency_stats(1) is None
        assert metrics.latency_stats(99) is None

    def test_single_sample_percentiles(self):
        """One sample: every percentile collapses to that sample."""
        metrics = MetricsRecorder()
        metrics.record_delivery(
            time=1.004, flow_id=3, size=1000, created_at=1.0
        )
        stats = metrics.latency_stats(3)
        assert stats.count == 1
        assert stats.p50 == pytest.approx(0.004)
        assert stats.p99 == pytest.approx(0.004)
        assert stats.mean == pytest.approx(0.004)
        assert stats.maximum == pytest.approx(0.004)

    def test_percentiles_are_nan_free_samples(self):
        """Nearest-rank always returns an actual sample — never an
        interpolated value, never NaN, for any fraction."""
        import math

        from repro.simulator.metrics import _percentile

        samples = sorted((0.003, 0.001, 0.004, 0.002))
        for fraction in (0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0):
            value = _percentile(samples, fraction, name="test-series")
            assert not math.isnan(value)
            assert value in samples
        # Edge fractions pin to the extremes.
        assert _percentile(samples, 0.0) == samples[0]
        assert _percentile(samples, 1.0) == samples[-1]

    def test_empty_sample_error_names_the_metric(self):
        from repro.simulator.metrics import _percentile

        with pytest.raises(ValueError, match=r"latency\[flow=9\]"):
            _percentile([], 0.5, name="latency[flow=9]")
        # The default name still yields a clear diagnostic.
        with pytest.raises(ValueError, match="empty sample"):
            _percentile([], 0.5)

    def test_simulated_latency_reasonable(self, testbed):
        """End-to-end: one uncongested flow's p99 is a few packet times."""
        from repro.routing import shortest_path_tables
        from repro.simulator import Flow, SimNetwork

        net = SimNetwork(testbed, shortest_path_tables(testbed))
        flow = net.add_flow(Flow(src="H1", dst="H9", flow_id=7007))
        net.run(0.02)
        stats = net.metrics.latency_stats(flow.flow_id)
        assert stats is not None
        # 6 hops x (32 us serialization + 1 us prop) plus queueing within
        # the window: bounded well under a millisecond.
        assert 1e-5 < stats.p50 < 1e-3
        assert stats.p99 >= stats.p50


class TestDrops:
    def test_drop_accounting(self):
        metrics = MetricsRecorder()
        metrics.record_drop(0.0, "ttl_expired", flow_id=1)
        metrics.record_drop(0.0, "ttl_expired", flow_id=1)
        metrics.record_drop(0.0, "lossy_overflow")
        assert metrics.total_drops() == 3
        assert metrics.total_drops("ttl_expired") == 2
        assert metrics.drops_per_flow[1] == 2

    def test_summary_mentions_counts(self):
        metrics = MetricsRecorder()
        metrics.record_delivery(0.0, 1, 1000)
        assert "delivered=1000B" in metrics.summary()


class TestPfcLog:
    def test_counts(self):
        log = PfcLog()
        log.record(0.0, "B", "A", 1, pause=True)
        log.record(0.1, "B", "A", 1, pause=False)
        log.record(0.2, "C", "B", 2, pause=True)
        assert log.pause_count == 2
        assert log.resume_count == 1
        assert log.pauses_by_link() == {("B", "A"): 1, ("C", "B"): 1}
        assert log.pauses_since(0.15) == 1


class TestPauseState:
    def test_pause_resume(self):
        state = PauseState()
        state.pause(1)
        assert state.is_paused(1)
        assert state.any_paused()
        state.resume(1)
        assert not state.any_paused()

    def test_lossy_queue_immune(self):
        state = PauseState()
        state.pause(0)
        assert not state.is_paused(0)

    def test_resume_idempotent(self):
        state = PauseState()
        state.resume(3)  # no-op
        assert not state.is_paused(3)
