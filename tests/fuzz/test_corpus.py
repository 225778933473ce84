"""Replay every committed counterexample in ``tests/corpus/``.

Entries recorded with an ``inject_fault`` must still reproduce their
violations when the fault is injected and replay clean without it;
entries recording real (since fixed) bugs must replay clean forever.
"""

from pathlib import Path

import pytest

from repro.fuzz import load_corpus, replay_entry

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
ENTRIES = load_corpus(str(CORPUS_DIR))


def test_corpus_is_committed_and_nonempty():
    assert ENTRIES, f"no corpus entries under {CORPUS_DIR}"


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.entry_id)
def test_corpus_entry_replays(entry):
    replay = replay_entry(entry)
    assert replay["ok"], replay


def test_graph_and_clos_faults_have_a_committed_witness():
    witnessed = {e.inject_fault for e in ENTRIES if e.inject_fault}
    assert {"skip-r2", "collapse-tags", "clos-ignore-bounce"} <= witnessed
