"""Static analysis: buffer-dependency graphs, CBD detection, optimality."""

from repro.analysis.cbd import (
    cbd_graph,
    find_cbd,
    has_cbd,
)
from repro.analysis.optimality import (
    clos_tagger_is_optimal,
    find_pigeonhole_cbd,
    min_lossless_priorities,
    witness_path_hops,
)

__all__ = [
    "cbd_graph",
    "find_cbd",
    "has_cbd",
    "min_lossless_priorities",
    "find_pigeonhole_cbd",
    "witness_path_hops",
    "clos_tagger_is_optimal",
]
