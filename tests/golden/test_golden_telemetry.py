"""Golden telemetry snapshots: frozen JSONL stream + Prometheus text.

The canonical 4-switch walkthrough — two counter-rotating flows on a
square fabric with a transient slow receiver — is run with telemetry
attached, and both export surfaces are frozen:

- ``square4-telemetry.jsonl``: the full structured event stream;
- ``square4-metrics.prom``: the Prometheus text exposition of the
  scrape registry (packet/PFC counters plus end-of-run queue gauges).

Any change to event kinds, field names, timestamp stamping, metric
names/labels or the text exposition format shows up here as a readable
diff in review. Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden
"""

from pathlib import Path
from typing import Optional

from repro.obs import Telemetry, aggregate_jsonl, sample_queue_gauges
from repro.routing import shortest_path_tables
from repro.simulator import Flow, SimConfig, SimNetwork, pin_path
from repro.topology import Topology

GOLDEN_DIR = Path(__file__).parent
STREAM_GOLDEN = GOLDEN_DIR / "square4-telemetry.jsonl"
METRICS_GOLDEN = GOLDEN_DIR / "square4-metrics.prom"


def square4() -> Topology:
    """Four switches in a ring, one host each — the smallest fabric on
    which PFC pause/resume chains span multiple switches."""
    topo = Topology(name="square4")
    for name in ("A", "B", "C", "D"):
        topo.add_switch(name, layer=0)
    topo.add_link("A", "B")
    topo.add_link("B", "C")
    topo.add_link("C", "D")
    topo.add_link("D", "A")
    for name in ("A", "B", "C", "D"):
        topo.add_host(f"H{name}")
        topo.add_link(f"H{name}", name)
    return topo


def run_square4(telemetry: Optional[Telemetry]) -> SimNetwork:
    """The walkthrough's simulation, with ``telemetry`` attached or not."""
    topo = square4()
    net = SimNetwork(
        topo,
        shortest_path_tables(topo),
        # Slow links + tight XOFF keep the stream compact while still
        # producing a multi-hop pause/resume chain.
        config=SimConfig(
            bandwidth_bps=1e8, xoff_bytes=12 * 1024, xon_bytes=8 * 1024
        ),
        telemetry=telemetry,
    )
    # Explicit flow ids: the default ids come from a process-global
    # counter, which would make the frozen stream depend on how many
    # flows earlier tests created.
    net.add_flow(
        Flow(
            src="HA",
            dst="HC",
            flow_id=1,
            pinned_next_hops=pin_path(("HA", "A", "B", "C", "HC")),
        )
    )
    net.add_flow(
        Flow(
            src="HC",
            dst="HA",
            start=0.002,
            flow_id=2,
            pinned_next_hops=pin_path(("HC", "C", "D", "A", "HA")),
        )
    )
    net.at(0.01, lambda: net.set_receiver_rate("HC", 5e6))
    net.at(0.03, lambda: net.set_receiver_rate("HC", None))
    net.run(0.04)
    return net


def run_walkthrough() -> Telemetry:
    """The frozen walkthrough: the full stream, per-packet events too."""
    telemetry = Telemetry(capacity=100_000, packet_events=True)
    net = run_square4(telemetry)
    sample_queue_gauges(telemetry.registry, net)
    return telemetry


def _check(path: Path, rendered: str, update: bool) -> None:
    if update:
        path.write_text(rendered)
    assert path.exists(), (
        f"golden snapshot {path.name} missing; regenerate with "
        f"pytest tests/golden --update-golden"
    )
    assert rendered == path.read_text(), (
        f"{path.name}: telemetry output diverged from the committed "
        f"golden snapshot; if intentional, rerun with --update-golden"
    )


def test_golden_event_stream(request):
    telemetry = run_walkthrough()
    assert telemetry.bus.evicted == 0
    rendered = "".join(
        line + "\n" for line in telemetry.bus.to_jsonl_lines()
    )
    _check(STREAM_GOLDEN, rendered, request.config.getoption("--update-golden"))
    # The frozen stream must itself be schema-valid (the same check
    # `repro-tagger stats` and the CI smoke step apply).
    aggregate = aggregate_jsonl(str(STREAM_GOLDEN))
    assert aggregate["events"] == telemetry.bus.total_emitted
    assert aggregate["by_kind"] == telemetry.bus.counts_by_kind()


def test_golden_prometheus_snapshot(request):
    telemetry = run_walkthrough()
    rendered = telemetry.render_prometheus()
    _check(
        METRICS_GOLDEN, rendered, request.config.getoption("--update-golden")
    )
    # Spot-check the walkthrough actually exercised PFC.
    assert 'sim_pfc_frames_total{kind="pause"}' in rendered
    assert 'sim_pfc_frames_total{kind="resume"}' in rendered
