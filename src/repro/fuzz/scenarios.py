"""Seeded scenario generation for the differential fuzzer.

A :class:`Scenario` is a fully reproducible description of one fuzz case:
a topology recipe (kind + parameters + sampled mutations such as failed
links or express circuits) and an ELP recipe. Everything random is
sampled once at generation time and stored concretely, so a scenario can
be serialized to JSON, committed to the regression corpus, and rebuilt
bit-for-bit later.

Scenario space (mirrors the paper's evaluation targets):

- ``clos`` — 3-layer Clos fabrics, optionally with failed links, with
  up-down or k-bounce ELPs (§4, Fig. 3);
- ``jellyfish`` — random regular fabrics with shortest-path ELPs plus
  optional extra random loop-free paths (Table 5);
- ``bcube`` — server-centric BCube with default digit-correcting routes,
  optionally mixed with rotated (BSR-style) routes that create
  inter-level cycles (§5.3);
- ``express`` — Clos augmented with same-layer ToR-to-ToR express links
  (Helios/Flyways/Projector, §6) and shortest-path ELPs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.elp import (
    ElpSet,
    PairwiseElpProvider,
    ShortestPathElpProvider,
    UpDownElpProvider,
    bcube_elp,
    clos_bounce_elp,
)
from repro.exceptions import ReproError
from repro.routing.shortest import bfs_distances, random_loopfree_paths
from repro.topology import ClosParams, Topology, clos3, jellyfish
from repro.topology.bcube import bcube, bcube_rotated_route, bcube_servers
from repro.topology.flexible import add_express_link

KINDS = ("clos", "jellyfish", "bcube", "express")


@dataclass
class Scenario:
    """One reproducible fuzz case: topology recipe + ELP recipe.

    When ``explicit_paths`` is set (shrunk corpus entries), it replaces
    the generated ELP verbatim; paths that no longer exist in the
    (possibly shrunk) topology are rejected at build time.
    """

    scenario_id: str
    kind: str
    seed: int
    topo_params: Dict[str, Any] = field(default_factory=dict)
    elp_kind: str = "updown"
    elp_params: Dict[str, Any] = field(default_factory=dict)
    failed_links: List[Tuple[str, str]] = field(default_factory=list)
    express_pairs: List[Tuple[str, str]] = field(default_factory=list)
    explicit_paths: Optional[List[Tuple[str, ...]]] = None

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def build_topology(self) -> Topology:
        if self.kind in ("clos", "express"):
            topo = clos3(ClosParams(**self.topo_params))
        elif self.kind == "jellyfish":
            topo = jellyfish(**self.topo_params)
        elif self.kind == "bcube":
            topo = bcube(**self.topo_params)
        else:
            raise ReproError(f"unknown scenario kind {self.kind!r}")
        for a, b in self.express_pairs:
            add_express_link(topo, a, b)
        for a, b in self.failed_links:
            topo.fail_link(a, b)
        return topo

    def pairwise_provider(self) -> Optional[PairwiseElpProvider]:
        """The provider whose ``build`` *is* this scenario's ELP, if any.

        The incremental planner consumes pair-decomposable ELPs only (its
        locality contract, see :class:`~repro.core.elp.PairwiseElpProvider`).
        Bounce, BCube, random-extra-path, and explicit-path scenarios are
        outside that input space; checks that need a provider skip them —
        not a violation.
        """
        if self.explicit_paths is not None:
            return None
        if self.elp_kind == "updown":
            return UpDownElpProvider()
        if self.elp_kind == "shortest" and not self.elp_params.get(
            "extra_random_paths", 0
        ):
            return self._shortest_provider()
        return None

    def _shortest_provider(self) -> ShortestPathElpProvider:
        return ShortestPathElpProvider(
            explicit_endpoints=self.elp_params.get("endpoints"),
            per_pair=self.elp_params.get("per_pair", 1),
        )

    def build_elp(self, topo: Topology) -> ElpSet:
        if self.explicit_paths is not None:
            elp = ElpSet(topo, description=f"{self.scenario_id} (explicit)")
            elp.extend(self.explicit_paths)
            elp.dedupe()
            return elp
        provider = self.pairwise_provider()
        if provider is not None:
            return provider.build(topo)
        if self.elp_kind == "bounce":
            return clos_bounce_elp(
                topo,
                max_bounces=self.elp_params.get("max_bounces", 1),
                max_paths_per_pair=self.elp_params.get("max_paths_per_pair"),
            )
        if self.elp_kind == "shortest":
            elp = self._shortest_provider().build(topo)
            elp.extend(
                random_loopfree_paths(
                    topo,
                    self.elp_params["extra_random_paths"],
                    endpoints=self.elp_params.get("endpoints"),
                    seed=self.elp_params.get("path_seed", self.seed),
                )
            )
            elp.dedupe()
            return elp
        if self.elp_kind == "bcube":
            n = self.topo_params["n"]
            k = self.topo_params["k"]
            elp = bcube_elp(topo, n, k)
            for src, dst, level in self.elp_params.get("rotated", []):
                elp.add(bcube_rotated_route(topo, n, k, src, dst, level))
            elp.dedupe()
            return elp
        raise ReproError(f"unknown ELP kind {self.elp_kind!r}")

    @property
    def clos_bounce_budget(self) -> Optional[int]:
        """Bounce budget k when the Clos tagger applies, else None."""
        if self.kind == "clos" and self.elp_kind in ("bounce", "updown"):
            if self.elp_kind == "updown":
                return 0
            return int(self.elp_params.get("max_bounces", 1))
        return None

    # ------------------------------------------------------------------
    # Serialization (corpus format)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        blob: Dict[str, Any] = {
            "scenario_id": self.scenario_id,
            "kind": self.kind,
            "seed": self.seed,
            "topo_params": dict(self.topo_params),
            "elp_kind": self.elp_kind,
            "elp_params": _jsonable(self.elp_params),
            "failed_links": [list(pair) for pair in self.failed_links],
            "express_pairs": [list(pair) for pair in self.express_pairs],
        }
        if self.explicit_paths is not None:
            blob["explicit_paths"] = [list(p) for p in self.explicit_paths]
        return blob

    @staticmethod
    def from_dict(blob: Dict[str, Any]) -> "Scenario":
        explicit = blob.get("explicit_paths")
        return Scenario(
            scenario_id=blob["scenario_id"],
            kind=blob["kind"],
            seed=blob["seed"],
            topo_params=dict(blob.get("topo_params", {})),
            elp_kind=blob.get("elp_kind", "updown"),
            elp_params=_rehydrate_elp_params(blob.get("elp_params", {})),
            failed_links=[tuple(pair) for pair in blob.get("failed_links", [])],
            express_pairs=[tuple(pair) for pair in blob.get("express_pairs", [])],
            explicit_paths=(
                [tuple(p) for p in explicit] if explicit is not None else None
            ),
        )

    def with_paths(self, paths: List[Tuple[str, ...]]) -> "Scenario":
        """Copy of this scenario pinned to an explicit path list."""
        return replace(self, explicit_paths=[tuple(p) for p in paths])


def _jsonable(params: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in params.items():
        if key == "rotated":
            out[key] = [list(item) for item in value]
        else:
            out[key] = value
    return out


def _rehydrate_elp_params(params: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(params)
    if "rotated" in out:
        out["rotated"] = [tuple(item) for item in out["rotated"]]
    return out


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
class ScenarioGenerator:
    """Deterministic stream of random scenarios from one master seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._index = 0

    def __iter__(self) -> "ScenarioGenerator":
        return self

    def __next__(self) -> Scenario:
        self._index += 1
        case_seed = self._rng.randrange(1, 2**31)
        rng = random.Random(case_seed)
        kind = rng.choices(KINDS, weights=(45, 20, 20, 15))[0]
        builder = {
            "clos": self._clos,
            "jellyfish": self._jellyfish,
            "bcube": self._bcube,
            "express": self._express,
        }[kind]
        return builder(rng, case_seed)

    # -- per-kind recipes ----------------------------------------------
    def _clos(self, rng: random.Random, case_seed: int) -> Scenario:
        params = ClosParams(
            num_pods=rng.randint(1, 3),
            tors_per_pod=rng.randint(2, 3),
            leaves_per_pod=rng.randint(1, 2),
            num_spines=rng.randint(1, 3),
            hosts_per_tor=rng.randint(1, 2),
        )
        if rng.random() < 0.35:
            elp_kind, elp_params = "updown", {}
        else:
            elp_kind = "bounce"
            elp_params = {
                "max_bounces": rng.randint(0, 2),
                "max_paths_per_pair": rng.randint(3, 8),
            }
        scenario = Scenario(
            scenario_id=f"clos-{case_seed:08x}",
            kind="clos",
            seed=case_seed,
            topo_params={
                "num_pods": params.num_pods,
                "tors_per_pod": params.tors_per_pod,
                "leaves_per_pod": params.leaves_per_pod,
                "num_spines": params.num_spines,
                "hosts_per_tor": params.hosts_per_tor,
            },
            elp_kind=elp_kind,
            elp_params=elp_params,
        )
        if rng.random() < 0.3:
            scenario.failed_links = _sample_safe_failures(
                scenario, rng, max_failures=rng.randint(1, 2)
            )
        return scenario

    def _jellyfish(self, rng: random.Random, case_seed: int) -> Scenario:
        num_switches = rng.randint(4, 8)
        network_ports = rng.randint(2, min(3, num_switches - 1))
        if (num_switches * network_ports) % 2 != 0:
            num_switches += 1
        return Scenario(
            scenario_id=f"jellyfish-{case_seed:08x}",
            kind="jellyfish",
            seed=case_seed,
            topo_params={
                "num_switches": num_switches,
                "ports_per_switch": network_ports + 1,
                "network_ports": network_ports,
                "hosts_per_switch": rng.randint(0, 1),
                "seed": case_seed,
            },
            elp_kind="shortest",
            elp_params={
                "per_pair": rng.randint(1, 2),
                "extra_random_paths": rng.randint(0, 4),
                "path_seed": case_seed,
            },
        )

    def _bcube(self, rng: random.Random, case_seed: int) -> Scenario:
        n = rng.randint(2, 3)
        k = 1
        elp_params: Dict[str, Any] = {}
        if rng.random() < 0.5:
            # Mix in rotated (BSR-style) routes: the regime where default
            # BCube routing stops being cycle-free across levels.
            topo = bcube(n=n, k=k)
            servers = bcube_servers(topo)
            rotated = []
            for _ in range(rng.randint(1, 4)):
                src, dst = rng.sample(servers, 2)
                rotated.append((src, dst, rng.randint(0, k)))
            elp_params["rotated"] = rotated
        return Scenario(
            scenario_id=f"bcube-{case_seed:08x}",
            kind="bcube",
            seed=case_seed,
            topo_params={"n": n, "k": k},
            elp_kind="bcube",
            elp_params=elp_params,
        )

    def _express(self, rng: random.Random, case_seed: int) -> Scenario:
        params = {
            "num_pods": rng.randint(2, 3),
            "tors_per_pod": rng.randint(2, 3),
            "leaves_per_pod": rng.randint(1, 2),
            "num_spines": rng.randint(1, 2),
            "hosts_per_tor": rng.randint(0, 1),
        }
        topo = clos3(ClosParams(**params))
        tors = sorted(topo.switches_at_layer(0))
        pairs: List[Tuple[str, str]] = []
        for _ in range(rng.randint(1, 2)):
            a, b = rng.sample(tors, 2)
            key = (min(a, b), max(a, b))
            if key not in pairs and not topo.has_link(*key):
                pairs.append(key)
                topo.add_link(*key)
        return Scenario(
            scenario_id=f"express-{case_seed:08x}",
            kind="express",
            seed=case_seed,
            topo_params=params,
            elp_kind="shortest",
            elp_params={"endpoints": tors, "per_pair": rng.randint(1, 2)},
            express_pairs=pairs,
        )


def _sample_safe_failures(
    scenario: Scenario, rng: random.Random, max_failures: int
) -> List[Tuple[str, str]]:
    """Sample switch-to-switch link failures that keep the fabric connected."""
    topo = scenario.build_topology()
    candidates = [
        link.key
        for link in topo.iter_links()
        if topo.node(link.a).is_switch and topo.node(link.b).is_switch
    ]
    rng.shuffle(candidates)
    chosen: List[Tuple[str, str]] = []
    for a, b in candidates:
        if len(chosen) >= max_failures:
            break
        topo.fail_link(a, b)
        if _switches_connected(topo):
            chosen.append((a, b))
        else:
            topo.restore_link(a, b)
    return chosen


def _switches_connected(topo: Topology) -> bool:
    switches = sorted(topo.switches)
    if len(switches) <= 1:
        return True
    reachable = bfs_distances(topo, switches[0])
    return all(name in reachable for name in switches)
