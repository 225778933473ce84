"""Golden snapshots at hyperscale: digests, not full tables.

A 1024-ToR fat-tree plan holds far too many rules to commit as JSON,
so these cases freeze a *digest* — the SHA-256 of the canonical rule
tables plus the headline counts (tags, rules, queues, ELP paths). Any
pipeline change that perturbs even one rule at scale flips the hash;
the counts narrow down *what* moved before anyone re-derives the full
tables.

Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import TaggerPlan, UpDownElpProvider, certify
from repro.core.rules import canonical_tables
from repro.topology import ClosParams, clos3

GOLDEN_DIR = Path(__file__).parent

#: 1024 ToRs: 32 pods x 32 ToRs, 4 leaves/pod, 4 spine planes, no hosts
#: (hosts do not affect tagging and would only slow the build).
FATTREE1024 = ClosParams(
    num_pods=32, tors_per_pod=32, leaves_per_pod=4, num_spines=4,
    hosts_per_tor=0,
)

#: The benchmark suite's canonical 64-ToR Clos (231,168 ELP paths).
CLOS64 = ClosParams(
    num_pods=8, tors_per_pod=8, leaves_per_pod=4, num_spines=4,
    hosts_per_tor=1,
)


def _digest_case(params: ClosParams) -> dict:
    plan = TaggerPlan.from_provider(clos3(params), UpDownElpProvider())
    assert plan.meta["certified"] is True, (
        "healthy clos3 fabric must take the closed-form symmetry path"
    )
    canon = json.dumps(
        canonical_tables(plan.tables), sort_keys=True
    ).encode()
    return {
        "tables_sha256": hashlib.sha256(canon).hexdigest(),
        "description": plan.description,
        "num_tags": plan.graph.num_tags,
        "total_rules": plan.total_rules,
        "num_lossless_queues": plan.num_lossless_queues,
        "elp_paths": plan.meta["elp_paths"],
    }


def _fattree1024_digest() -> dict:
    return _digest_case(FATTREE1024)


CASES = {
    "fattree1024-digest": _fattree1024_digest,
}


def test_clos64_closed_form_counts_its_paths():
    """The certificate's path accounting on the canonical 64-ToR Clos."""
    cert = certify(clos3(CLOS64), UpDownElpProvider())
    assert cert is not None, "healthy 64-ToR Clos must certify"
    assert cert.path_count() == 231_168


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_scale_snapshot(name, request):
    snapshot = CASES[name]()
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--update-golden"):
        path.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        )
    assert path.exists(), (
        f"golden snapshot {path.name} missing; regenerate with "
        f"pytest tests/golden --update-golden"
    )
    frozen = json.loads(path.read_text())
    assert snapshot == frozen, (
        f"{name}: diverged from the committed golden snapshot; "
        f"if intentional, rerun with --update-golden"
    )
