"""Workload generators for the evaluation scenarios."""

from repro.workloads.random_flows import random_permutation_flows

__all__ = [
    "random_permutation_flows",
]
