"""Seeded input generators: the only place ``--seed`` is consumed.

Everything returned here is plain JSON-serialisable data (names, lists,
numbers) derived from a :class:`ClosParams` and a seed, never from a
built topology, so equal seeds give byte-identical inputs and the
system under test receives nothing but the generated inputs.

Every generator draws from a *symmetric* family: the seed picks which
pods, leaves, spines and hosts play each role, but the shape of the
traffic or churn (how many cycles, how many flows cross pods, which
kinds of link fail in which order) is fixed. On a Clos that makes the
cost of an operation nearly independent of the seed, which is what lets
runs on different seeds be compared within a 10 % bound.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.topology import ClosParams

#: Seed whose outputs are committed in ``expected.json``.
DEFAULT_SEED = 1

# Naming follows repro.topology.clos3: 1-based global numbering, and
# with hosts_per_tor == 1 host H<n> hangs off ToR T<n>.


def pod_tors(params: ClosParams, pod: int) -> List[str]:
    base = pod * params.tors_per_pod
    return [f"T{base + j + 1}" for j in range(params.tors_per_pod)]


def pod_leaves(params: ClosParams, pod: int) -> List[str]:
    base = pod * params.leaves_per_pod
    return [f"L{base + j + 1}" for j in range(params.leaves_per_pod)]


def spines(params: ClosParams) -> List[str]:
    return [f"S{i + 1}" for i in range(params.num_spines)]


def host_of(tor: str) -> str:
    return "H" + tor[1:]


def _require_one_host_per_tor(params: ClosParams) -> None:
    if params.hosts_per_tor != 1:
        raise ValueError("traffic generators need hosts_per_tor == 1")


def greenfield_traffic(params: ClosParams, seed: int) -> Dict[str, Any]:
    """Crossing 1-bounce flow pairs (paper Figs 3/10) plus background.

    Pods are paired off; each pod pair hosts as many independent
    cyclic-buffer-dependency pairs as disjoint (two leaves per pod, two
    spines) slots exist. A pair is a *blue* flow pod A -> pod B that
    bounces off a leaf of B and a *green* flow B -> A that bounces off a
    leaf of A; pinned together they close the cycle
    ``La -> Sx -> Lb -> Sy -> La``. The green receiver is throttled
    briefly, which is what turns the dependency into a deadlock under
    plain PFC. Hosts not used by a pair run a 1000 B ring shuffle inside
    their own pod: it shares switches with the pinned flows but no link,
    so it loads the simulator without reordering the pause propagation
    the detector relies on (a cross-pod shuffle made the detector miss
    the cycle on some seeds; see README "Observations").
    """
    _require_one_host_per_tor(params)
    rng = random.Random(seed)
    cycles_per_pair = min(params.leaves_per_pod // 2, params.num_spines // 2)
    if params.num_pods < 2 or cycles_per_pair < 1:
        raise ValueError("need >= 2 pods, >= 2 leaves/pod and >= 2 spines")
    if params.tors_per_pod < 2 * cycles_per_pair + 2:
        raise ValueError("need two free ToRs per pod for the shuffle")
    order = list(range(params.num_pods))
    rng.shuffle(order)
    pairs: List[Dict[str, Any]] = []
    used = set()
    for i in range(0, len(order) - 1, 2):
        pod_a, pod_b = order[i], order[i + 1]
        leaves_a = rng.sample(pod_leaves(params, pod_a), 2 * cycles_per_pair)
        leaves_b = rng.sample(pod_leaves(params, pod_b), 2 * cycles_per_pair)
        spine_order = rng.sample(spines(params), 2 * cycles_per_pair)
        tors_a = rng.sample(pod_tors(params, pod_a), 2 * cycles_per_pair)
        tors_b = rng.sample(pod_tors(params, pod_b), 2 * cycles_per_pair)
        for k in range(cycles_per_pair):
            la, la2 = leaves_a[2 * k], leaves_a[2 * k + 1]
            lb, lb2 = leaves_b[2 * k], leaves_b[2 * k + 1]
            sx, sy = spine_order[2 * k], spine_order[2 * k + 1]
            ta, ta2 = tors_a[2 * k], tors_a[2 * k + 1]
            tb, tb2 = tors_b[2 * k], tors_b[2 * k + 1]
            blue = [host_of(ta), ta, la, sx, lb, sy, lb2, tb, host_of(tb)]
            green = [host_of(tb2), tb2, lb, sy, la, sx, la2, ta2, host_of(ta2)]
            pairs.append({"blue": blue, "green": green, "throttle": green[-1]})
            used.update((blue[0], blue[-1], green[0], green[-1]))
    shuffle: List[List[str]] = []
    for pod in range(params.num_pods):
        free = [
            host_of(tor)
            for tor in pod_tors(params, pod)
            if host_of(tor) not in used
        ]
        offset = 1 + rng.randrange(len(free) - 1)
        for i, src in enumerate(free):
            shuffle.append([src, free[(i + offset) % len(free)]])
    return {"pairs": pairs, "shuffle": shuffle, "sim_seed": seed, "oracle_seed": seed}


def churn_episodes(
    params: ClosParams, seed: int, count: int
) -> List[List[List[str]]]:
    """``count`` link-flap episodes of four deltas each.

    One episode fails a ToR uplink, fails a leaf-spine link in another
    pod, repairs the uplink, repairs the spine link — so every episode
    exercises the same four re-planner regimes (small-locality
    incremental, large-locality incremental, incremental restore into an
    unseen state, memo hit back to the pristine fabric) and ends where
    it started. The seed only picks *which* links flap. A delta is
    ``[kind, a, b]`` with ``kind`` in ``link-down`` / ``link-up``.
    """
    if params.num_pods < 2:
        raise ValueError("need >= 2 pods so the two flapping links differ in pod")
    rng = random.Random(seed)
    episodes = []
    for _ in range(count):
        pod_a, pod_b = rng.sample(range(params.num_pods), 2)
        tor = rng.choice(pod_tors(params, pod_a))
        uplink_leaf = rng.choice(pod_leaves(params, pod_a))
        leaf = rng.choice(pod_leaves(params, pod_b))
        spine = rng.choice(spines(params))
        episodes.append(
            [
                ["link-down", uplink_leaf, tor],
                ["link-down", leaf, spine],
                ["link-up", uplink_leaf, tor],
                ["link-up", leaf, spine],
            ]
        )
    return episodes


def fabric_traffic(params: ClosParams, seed: int, fan_in: int = 3) -> Dict[str, Any]:
    """Cross-pod incasts over an all-hosts cross-pod ring shuffle.

    Every pod contributes ``tors_per_pod // (1 + fan_in)`` sinks and
    ``fan_in`` senders per sink; sink ``j`` of pod ``p`` is fed by one
    sender from each of the pods ``p + o`` for ``fan_in`` seeded
    offsets ``o``, so every host is either a sink or a sender of exactly
    one incast. On top, every host sends a small-packet flow to the host
    at the same position a seeded number of pods over.
    """
    _require_one_host_per_tor(params)
    rng = random.Random(seed)
    sinks_per_pod = params.tors_per_pod // (1 + fan_in)
    if sinks_per_pod < 1 or params.num_pods <= fan_in:
        raise ValueError("fabric too small for the incast pattern")
    pods = []
    for pod in range(params.num_pods):
        hosts = [host_of(tor) for tor in pod_tors(params, pod)]
        rng.shuffle(hosts)
        pods.append(hosts)
    offsets = rng.sample(range(1, params.num_pods), fan_in)
    incasts = []
    for pod in range(params.num_pods):
        for j in range(sinks_per_pod):
            senders = [
                pods[(pod + offsets[k]) % params.num_pods][
                    sinks_per_pod + j * fan_in + k
                ]
                for k in range(fan_in)
            ]
            incasts.append({"sink": pods[pod][j], "senders": senders})
    ring_pods = 1 + rng.randrange(params.num_pods - 1)
    hosts = [
        host_of(tor)
        for pod in range(params.num_pods)
        for tor in pod_tors(params, pod)
    ]
    step = ring_pods * params.tors_per_pod
    shuffle = [
        [src, hosts[(i + step) % len(hosts)]] for i, src in enumerate(hosts)
    ]
    return {"incasts": incasts, "shuffle": shuffle, "sim_seed": seed, "oracle_seed": seed}
