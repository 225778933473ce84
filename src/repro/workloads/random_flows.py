"""Random traffic matrices for performance-penalty experiments (§8.3)."""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.exceptions import SimulationError
from repro.simulator.flow import Flow


def random_permutation_flows(
    hosts: Sequence[str],
    start: float = 0.0,
    packet_size: int = 4096,
    window: int = 8,
    seed: int = 1,
) -> List[Flow]:
    """A random permutation: every host sends to exactly one other host.

    Derangement-style: no host sends to itself.
    """
    if len(hosts) < 2:
        raise SimulationError("need at least two hosts for a permutation")
    rng = random.Random(seed)
    sources = list(hosts)
    destinations = list(hosts)
    while True:
        rng.shuffle(destinations)
        if all(s != d for s, d in zip(sources, destinations)):
            break
    return [
        Flow(src=s, dst=d, start=start, packet_size=packet_size, window=window)
        for s, d in zip(sources, destinations)
    ]
