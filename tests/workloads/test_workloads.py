"""Tests for workload generators."""

import pytest

from repro.exceptions import SimulationError
from repro.workloads import random_permutation_flows


class TestRandomFlows:
    def test_permutation_is_derangement(self):
        hosts = [f"H{i}" for i in range(1, 9)]
        flows = random_permutation_flows(hosts, seed=3)
        assert len(flows) == 8
        assert all(f.src != f.dst for f in flows)
        assert sorted(f.src for f in flows) == sorted(hosts)
        assert sorted(f.dst for f in flows) == sorted(hosts)

    def test_permutation_seeded(self):
        hosts = [f"H{i}" for i in range(1, 9)]
        a = random_permutation_flows(hosts, seed=5)
        b = random_permutation_flows(hosts, seed=5)
        assert [(f.src, f.dst) for f in a] == [(f.src, f.dst) for f in b]

    def test_too_few_hosts(self):
        with pytest.raises(SimulationError):
            random_permutation_flows(["H1"])


class TestFlowValidation:
    def test_flow_rejects_bad_params(self):
        from repro.simulator import Flow

        with pytest.raises(SimulationError):
            Flow(src="H1", dst="H1")
        with pytest.raises(SimulationError):
            Flow(src="H1", dst="H2", packet_size=0)
        with pytest.raises(SimulationError):
            Flow(src="H1", dst="H2", window=0)
        with pytest.raises(SimulationError):
            Flow(src="H1", dst="H2", start=2.0, stop=1.0)

    def test_activity_window(self):
        from repro.simulator import Flow

        flow = Flow(src="H1", dst="H2", start=1.0, stop=2.0)
        assert not flow.active_at(0.5)
        assert flow.active_at(1.5)
        assert not flow.active_at(2.0)
        endless = Flow(src="H1", dst="H2", start=0.0)
        assert endless.active_at(100.0)

    def test_pin_path(self):
        from repro.simulator import pin_path

        pinned = pin_path(("H1", "T1", "L1", "S1"))
        assert pinned["T1"] == "L1"
        assert pinned["L1"] == "S1"
