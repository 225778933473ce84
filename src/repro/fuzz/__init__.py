"""Differential fuzzing of the tagging algorithms against each other and
against the simulator's dynamic deadlock oracle.

Theorem 5.1 (R1 per-tag acyclicity + R2 tag monotonicity) is the entire
safety argument of Tagger. This package stress-tests it end to end:

- :mod:`repro.fuzz.scenarios` — seeded generator of random topologies
  (Clos with failures, Jellyfish, BCube, express-link fabrics) plus
  random ELP sets;
- :mod:`repro.fuzz.crosscheck` — runs brute-force, greedy, deterministic
  and (where applicable) Clos taggers on the same ELP, stage by stage;
  its ``STAGES`` table is the one declaration of every static invariant;
- :mod:`repro.fuzz.oracle` — replays scenarios through the packet-level
  simulator: tagged configs must never deadlock, deliberately untagged
  control runs on CBD-prone path pairs must (oracle sensitivity);
- :mod:`repro.fuzz.faults` — artificial bugs, one ``FAULT_TABLE`` row
  each (stage injected at, invariants it must trip), used to prove the
  harness actually catches regressions;
- :mod:`repro.fuzz.shrink` — delta-debugging counterexample minimizer;
- :mod:`repro.fuzz.corpus` — committed regression corpus
  (``tests/corpus/``) replayed by ``tests/fuzz/test_corpus.py``;
- :mod:`repro.fuzz.harness` — the orchestrator behind
  ``repro-tagger fuzz``.
"""

from repro.fuzz.corpus import CorpusEntry, load_corpus, save_entry
from repro.fuzz.crosscheck import CrossCheckResult, Violation, cross_check
from repro.fuzz.faults import FAULTS, FaultError
from repro.fuzz.harness import FuzzConfig, FuzzReport, replay_entry, run_fuzz
from repro.fuzz.oracle import OracleOutcome, find_cbd_pairs, run_oracle
from repro.fuzz.scenarios import Scenario, ScenarioGenerator
from repro.fuzz.shrink import shrink_scenario

__all__ = [
    "CorpusEntry",
    "load_corpus",
    "save_entry",
    "CrossCheckResult",
    "Violation",
    "cross_check",
    "FAULTS",
    "FaultError",
    "FuzzConfig",
    "FuzzReport",
    "replay_entry",
    "run_fuzz",
    "OracleOutcome",
    "find_cbd_pairs",
    "run_oracle",
    "Scenario",
    "ScenarioGenerator",
    "shrink_scenario",
]
