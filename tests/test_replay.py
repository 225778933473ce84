"""R204: host traffic replayed through the compiled programs
(:mod:`repro.replay`).

The replay starts at the source host's port with the initial tag, so a
plan that carries switch-to-switch traffic but never tags what its hosts
inject fails at hop 1. Two plan families do so today; their tests are
strict xfails that name ROADMAP item 1b, which fixes them.
"""

import pytest

from repro.core import ShortestPathElpProvider, TaggerPlan, UpDownElpProvider
from repro.core.compression import tcam_program
from repro.replay import fabric_digest, host_paths, replay_hosts
from repro.topology import ClosParams, clos3, jellyfish

#: The hosted 16-ToR Clos of ROADMAP item 1: 240 ToR pairs, one host each.
HOSTED = ClosParams(4, 4, 2, 2, hosts_per_tor=1)


def _programs(plan):
    return {switch: tcam_program(table, plan.topo.ports(switch)) for switch, table in plan.tables.items()}


def _one_path_per_pair(paths):
    chosen = {}
    for path in paths:
        chosen.setdefault((path[0], path[-1]), path)
    return list(chosen.values())


def _hosted_clos_paths(topo):
    return host_paths(topo, _one_path_per_pair(UpDownElpProvider().build(topo)))


def _replay(plan, paths):
    return replay_hosts(plan.topo, _programs(plan), plan.queue_map, paths)


def test_clos_policy_plan_keeps_every_host_path_lossless():
    topo = clos3(HOSTED)
    paths = _hosted_clos_paths(topo)
    assert len(paths) == 240
    replay = _replay(TaggerPlan.for_clos(topo, 1), paths)
    assert (replay.lossless, replay.total, replay.demoted) == (240, 240, ())
    assert replay.ok and replay.fraction == 1.0


def test_stripped_host_ingress_fails_at_hop_one():
    topo = clos3(HOSTED)
    plan = TaggerPlan.for_clos(topo, 1)
    for switch, table in plan.tables.items():
        for key in [key for key in table.rules if topo.node(topo.peer_on_port(switch, key[1])).is_host]:
            del table.rules[key]
    replay = _replay(plan, _hosted_clos_paths(topo))
    assert replay.lossless == 0 and replay.total == 240
    assert {hop for _path, hop in replay.demoted} == {1}
    path, hop = replay.demoted[0]
    assert topo.node(path[0]).is_host and path[hop] == path[1]
    assert "at hop 1" in replay.summary()


def test_a_lossy_initial_tag_fails_at_hop_one():
    topo = clos3(HOSTED)
    plan = TaggerPlan.for_clos(topo, 1)

    class NoLossless:
        mapping = ((1, 0), (2, 0))

    replay = replay_hosts(topo, _programs(plan), NoLossless(), _hosted_clos_paths(topo)[:3])
    assert [hop for _path, hop in replay.demoted] == [1, 1, 1]


def test_host_paths_pair_every_host_of_both_ends():
    topo = clos3(ClosParams(2, 2, 2, 2, hosts_per_tor=2))
    (path,) = _one_path_per_pair(UpDownElpProvider().build(topo))[:1]
    expanded = host_paths(topo, [path])
    assert len(expanded) == 4
    assert all(p[1:-1] == tuple(path) for p in expanded)
    assert host_paths(topo, [("L1", "S1")]) == []  # no host on either end


def test_fabric_digest_names_the_fabric_and_its_elp():
    topo = clos3(HOSTED)
    digest = fabric_digest(topo, "updown")
    assert digest == fabric_digest(clos3(HOSTED), "updown")
    assert digest != fabric_digest(topo, "clos bounces=1")
    topo.fail_link("L1", "S1")
    assert digest != fabric_digest(topo, "updown")
    assert digest != fabric_digest(clos3(ClosParams(4, 4, 2, 2, hosts_per_tor=2)), "updown")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1b: from_provider plans emit no host-ingress rule (0 of 240 lossless)",
)
def test_hosted_provider_plan_carries_host_traffic():
    topo = clos3(HOSTED)
    replay = _replay(TaggerPlan.from_provider(topo, UpDownElpProvider()), _hosted_clos_paths(topo))
    assert replay.ok, replay.summary()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1b: from_elp plans emit no host-ingress rule (0 of 64 512 lossless)",
)
def test_jellyfish_elp_plan_carries_host_traffic():
    topo = jellyfish(64, 8, hosts_per_switch=4, seed=3)
    elp = ShortestPathElpProvider().build(topo)
    replay = _replay(TaggerPlan.from_elp(topo, elp), host_paths(topo, elp))
    assert replay.total == 64512
    assert replay.ok, replay.summary()
