"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_are_independent_series(self):
        counter = Counter("drops_total", labelnames=("reason",))
        counter.inc(reason="ttl")
        counter.inc(3, reason="watchdog")
        assert counter.value(reason="ttl") == 1
        assert counter.value(reason="watchdog") == 3
        assert counter.value(reason="other") == 0
        assert counter.samples() == {("ttl",): 1.0, ("watchdog",): 3.0}

    def test_negative_increment_rejected(self):
        counter = Counter("ups_total")
        with pytest.raises(TelemetryError, match="cannot decrease"):
            counter.inc(-1)

    def test_label_schema_mismatch_rejected(self):
        counter = Counter("x_total", labelnames=("a",))
        with pytest.raises(TelemetryError, match="takes labels"):
            counter.inc(b=1)
        with pytest.raises(TelemetryError, match="takes labels"):
            counter.value()

    def test_invalid_names_rejected(self):
        with pytest.raises(TelemetryError, match="invalid metric name"):
            Counter("bad-name")
        with pytest.raises(TelemetryError, match="invalid label name"):
            Counter("ok_total", labelnames=("bad-label",))


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth_bytes")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12
        gauge.inc(-20)  # gauges may decrease
        assert gauge.value() == -8


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        hist = Histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        assert hist.sample_count() == 4
        assert hist.sample_sum() == pytest.approx(6.05)
        lines = hist.render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 3' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 4' in lines
        assert "lat_seconds_count 4" in lines

    def test_inf_bucket_appended_automatically(self):
        hist = Histogram("x_seconds", buckets=(1.0,))
        assert hist.buckets[-1] == float("inf")
        assert len(hist.buckets) == 2

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(TelemetryError, match="bucket"):
            Histogram("x_seconds", buckets=())

    def test_empty_series_reads_zero(self):
        hist = Histogram("x_seconds")
        assert hist.sample_count() == 0
        assert hist.sample_sum() == 0.0

    def test_to_dict_carries_bucket_counts(self):
        hist = Histogram(
            "stage_seconds", labelnames=("stage",), buckets=(1.0,)
        )
        hist.observe(0.5, stage="verify")
        blob = hist.to_dict()
        assert blob["type"] == "histogram"
        assert blob["buckets"] == ["1", "+Inf"]
        (sample,) = blob["samples"]
        assert sample["labels"] == {"stage": "verify"}
        assert sample["bucket_counts"] == [1, 0]
        assert sample["count"] == 1


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "help", labelnames=("x",))
        again = registry.counter("a_total", "help", labelnames=("x",))
        assert first is again
        assert len(registry) == 1
        assert "a_total" in registry
        assert registry.get("a_total") is first
        assert registry.get("missing") is None

    def test_conflicting_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(TelemetryError, match="re-registered"):
            registry.counter("a_total", labelnames=("x",))
        with pytest.raises(TelemetryError, match="re-registered"):
            registry.histogram("a_total")

    def test_counter_name_cannot_become_gauge(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(TelemetryError):
            registry.gauge("a_total")

    def test_render_prometheus_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.gauge("z_depth", "Depth.").set(2)
        counter = registry.counter("a_total", "Things.", labelnames=("k",))
        counter.inc(k="x")
        text = registry.render_prometheus()
        assert text == (
            "# HELP a_total Things.\n"
            "# TYPE a_total counter\n"
            'a_total{k="x"} 1\n'
            "# HELP z_depth Depth.\n"
            "# TYPE z_depth gauge\n"
            "z_depth 2\n"
        )
        # Integral floats render as integers; non-integral round-trip.
        registry.gauge("z_depth").set(2.5)
        assert "z_depth 2.5" in registry.render_prometheus()

    def test_label_values_and_help_are_escaped(self):
        """Text format 0.0.4: a switch name with a quote, a backslash and
        a line feed renders as one well-formed sample line."""
        registry = MetricsRegistry()
        demotions = registry.counter(
            "sim_tag_demotions_total",
            "Tag rewrites,\nby switch (C:\\ style).",
            labelnames=("switch",),
        )
        demotions.inc(switch='L"1\\x\nnext')
        histogram = registry.histogram(
            "h_seconds", labelnames=("stage",), buckets=(1.0,)
        )
        histogram.observe(0.5, stage='a"b')
        lines = registry.render_prometheus().splitlines()
        assert lines[:3] == [
            "# TYPE h_seconds histogram",
            'h_seconds_bucket{stage="a\\"b",le="1"} 1',
            'h_seconds_bucket{stage="a\\"b",le="+Inf"} 1',
        ]
        assert lines[-3:] == [
            "# HELP sim_tag_demotions_total "
            "Tag rewrites,\\nby switch (C:\\\\ style).",
            "# TYPE sim_tag_demotions_total counter",
            'sim_tag_demotions_total{switch="L\\"1\\\\x\\nnext"} 1',
        ]

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert MetricsRegistry().to_dict() == {}

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.counter("a_total")
        assert registry.names() == ["a_total", "b_total"]
