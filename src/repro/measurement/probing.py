"""IP-in-IP reroute probing (paper §3.2, Table 1).

The paper instruments production servers to send IP-in-IP probes to the
highest-layer switches; the switch decapsulates and routes the probe back
using the inner header. In a healthy 3-layer Clos the return trip is 3
hops, so probes arrive with TTL = initial - 3; a smaller TTL reveals that
the probe took a reroute (bounce) path. A measurement sends ``n`` probes
and flags reroute if their received TTLs are not all equal; Table 1
reports the fraction of measurements that saw a reroute, around 2e-5 per
measurement across >20 data centers.

We reproduce the *methodology* faithfully against a simulated fabric with
a random link-failure process standing in for production flakiness; the
probability knob is calibrated so the output lands in the paper's regime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.exceptions import RoutingError
from repro.routing.base import ForwardingTable
from repro.routing.reroute import apply_local_reroute
from repro.routing.shortest import shortest_path_tables
from repro.topology.base import Topology
from repro.topology.failures import RandomLinkFailures


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one IP-in-IP probe (the return trip)."""

    host: str
    spine: str
    received_ttl: int
    hops: int


@dataclass
class MeasurementStats:
    """One day of Table 1: total measurements and how many saw reroutes."""

    total: int = 0
    rerouted: int = 0

    @property
    def reroute_probability(self) -> float:
        return self.rerouted / self.total if self.total else 0.0


def probe_return_ttl(
    topo: Topology,
    table: ForwardingTable,
    spine: str,
    host: str,
    initial_ttl: int = 64,
    flow_hash: int = 0,
    max_hops: int = 32,
) -> ProbeResult:
    """Trace the decapsulated probe from ``spine`` back to ``host``.

    Mirrors the paper's mechanics: the spine routes toward the host using
    the current tables; TTL decrements per switch hop.
    """
    path, completed = table.trace(spine, host, flow_hash=flow_hash, max_hops=max_hops)
    if not completed:
        raise RoutingError(f"probe from {spine!r} to {host!r} did not return")
    hops = len(path) - 1
    return ProbeResult(
        host=host, spine=spine, received_ttl=initial_ttl - hops, hops=hops
    )


def run_measurement(
    topo: Topology,
    table: ForwardingTable,
    host: str,
    spine: str,
    probes: int,
    expected_ttl: int,
    initial_ttl: int = 64,
) -> bool:
    """One measurement = ``probes`` probes; True if any reroute detected.

    The paper flags a measurement when received TTLs are unequal; since
    converged tables give identical TTLs per ECMP path length, we compare
    against the known healthy TTL (equivalent detection for a fabric
    whose shortest return trip is fixed).
    """
    for i in range(probes):
        result = probe_return_ttl(
            topo, table, spine, host, initial_ttl=initial_ttl, flow_hash=i
        )
        if result.received_ttl != expected_ttl:
            return True
    return False


@dataclass
class ProbeCampaign:
    """Reproduces one Table 1 row: many measurements over a flaky fabric.

    Each measurement: (1) sample link failures with per-link probability
    ``link_failure_prob``; (2) recompute/locally-repair routing;
    (3) send ``probes_per_measurement`` probes from a random host via a
    random spine; (4) flag reroute when a probe's return TTL deviates.
    """

    topo: Topology
    link_failure_prob: float
    probes_per_measurement: int = 100
    initial_ttl: int = 64
    seed: int = 1

    def run(self, measurements: int) -> MeasurementStats:
        rng = random.Random(self.seed)
        spines = self._spines()
        hosts = sorted(self.topo.hosts)
        healthy_table = shortest_path_tables(self.topo)
        # Healthy return trip: spine -> ... -> host (3 hops in 3-layer Clos).
        sample_host = hosts[0]
        healthy = probe_return_ttl(
            self.topo, healthy_table, spines[0], sample_host, self.initial_ttl
        )
        expected_ttl = healthy.received_ttl

        failures = RandomLinkFailures(
            self.topo, self.link_failure_prob, seed=self.seed + 1
        )
        stats = MeasurementStats()
        for _ in range(measurements):
            failed = failures.apply_sample()
            if failed:
                table = self._table_after_failures(healthy_table, failed)
            else:
                table = healthy_table
            host = rng.choice(hosts)
            spine = rng.choice(spines)
            stats.total += 1
            try:
                if run_measurement(
                    self.topo,
                    table,
                    host,
                    spine,
                    self.probes_per_measurement,
                    expected_ttl,
                    self.initial_ttl,
                ):
                    stats.rerouted += 1
            except RoutingError:
                # Partitioned host: the probe never returns; production
                # would count this as a failed measurement, not a reroute.
                stats.total -= 1
        self.topo.restore_all()
        return stats

    def _spines(self) -> List[str]:
        layers = [
            node.layer
            for node in self.topo.nodes.values()
            if node.is_switch and node.layer is not None
        ]
        top = max(layers)
        return sorted(self.topo.switches_at_layer(top))

    def _table_after_failures(
        self, healthy: ForwardingTable, failed
    ) -> ForwardingTable:
        # Transient state: copy healthy tables, locally repair around each
        # failed link (this is what creates bounce paths / longer TTLs).
        table = ForwardingTable(
            entries={
                switch: {dst: list(hops) for dst, hops in routes.items()}
                for switch, routes in healthy.entries.items()
            }
        )
        for link in failed:
            try:
                apply_local_reroute(self.topo, table, link)
            except RoutingError:
                continue  # isolated destination; skip
        return table
