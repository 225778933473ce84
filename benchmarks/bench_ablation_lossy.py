"""Ablation — the bounce budget k vs. lossy exposure.

Paper §4.2/§6: operators choose how many bounces stay lossless; packets
beyond the budget fall into the lossy queue ("bringing the possibility of
falling in the lossy queue to nearly 0" as k grows). We quantify that
trade-off: for each budget k, the fraction of all <=2-bounce paths that
a ClosTagger(k) keeps lossless, against the k+1 priorities it costs.
"""

import pytest

from conftest import format_table
from repro.core import ClosTagger
from repro.routing import all_bounce_paths, classify_by_bounces, count_bounces
from repro.topology import testbed_clos

MAX_OBSERVED_BOUNCES = 2


def run_tradeoff():
    topo = testbed_clos()
    paths = all_bounce_paths(
        topo,
        MAX_OBSERVED_BOUNCES,
        endpoints=["T1", "T2", "T3", "T4"],
        max_paths_per_pair=200,
    )
    by_bounces = classify_by_bounces(topo, paths)
    rows = []
    for k in range(MAX_OBSERVED_BOUNCES + 1):
        tagger = ClosTagger(topo, max_bounces=k)
        lossless = sum(
            1 for path in paths if tagger.path_stays_lossless(path)
        )
        expected = sum(
            len(bucket)
            for bounces, bucket in by_bounces.items()
            if bounces <= k
        )
        rows.append(
            (
                k,
                tagger.num_lossless_tags,
                len(paths),
                lossless,
                f"{lossless / len(paths):.3f}",
                expected,
            )
        )
    return rows, {b: len(p) for b, p in by_bounces.items()}


def test_ablation_lossy_exposure(report):
    rows, histogram = run_tradeoff()
    table = format_table(
        [
            "k (budget)",
            "Lossless queues",
            "Paths considered",
            "Kept lossless",
            "Fraction",
            "Expected (<=k bounces)",
        ],
        rows,
    )
    lines = [
        f"bounce histogram of considered paths: {histogram}",
        table,
    ]
    report("ablation_lossy_exposure", "\n".join(lines))

    for k, queues, total, lossless, _, expected in rows:
        assert queues == k + 1
        # Exactness: the tagger keeps lossless precisely the <=k-bounce
        # paths — no more, no fewer.
        assert lossless == expected
    fractions = [float(row[4]) for row in rows]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0
