"""Tagger core: tagged graphs, tagging algorithms, rules, verification.

The package implements the paper's primary contribution:

- :class:`~repro.core.tags.TaggedGraph` and helpers (§5 formalization);
- :func:`~repro.core.bruteforce.bruteforce_tagging` — Algorithm 1;
- :func:`~repro.core.greedy.greedy_minimize` — Algorithm 2;
- :class:`~repro.core.clos.ClosTagger` — the optimal layered-fabric
  scheme (§4.3), one turn rule that also covers §6's express links and,
  with several initial tags, its staggered traffic classes
  (:func:`~repro.core.multiclass.staggered_tagger`);
- rule generation and TCAM compression (§5.2, §7);
- Theorem 5.1 verification;
- :class:`~repro.core.planner.TaggerPlan` — the high-level entry point.
"""

from repro.core.bruteforce import bruteforce_tagging, longest_path_hops
from repro.core.clos import ClosTagger
from repro.core.compression import (
    CompressionStats,
    TcamEntry,
    compress_in_ports,
    compress_joint,
    compression_stats,
    expand,
    first_match,
    safeguard_entry,
    tcam_program,
)
from repro.core.elp import (
    ElpSet,
    PairwiseElpProvider,
    ShortestPathElpProvider,
    UpDownElpProvider,
    bcube_elp,
    canonical_elp_path,
    clos_bounce_elp,
    clos_updown_elp,
    jellyfish_elp,
    shortest_path_elp,
)
from repro.core.determinize import (
    DeterministicTagging,
    deterministic_minimize,
)
from repro.core.discovery import (
    elp_under_failures,
    single_link_failure_scenarios,
    trace_elp,
)
from repro.core.greedy import greedy_minimize
from repro.core.multiclass import TrafficClass, naive_priority_count, staggered_tagger
from repro.core.pipeline import LOSSY_QUEUE, PipelineConfig, QueueMap
from repro.core.queuefit import (
    apply_tag_mapping,
    fit_to_queues,
    merge_is_safe,
    remap_tables,
)
from repro.core.planner import TaggerPlan, compile_plan
from repro.core.replan import IncrementalPlanner, ReplanResult
from repro.core.rules import (
    MatchActionRule,
    RuleDiff,
    RuleGenerationReport,
    RuleTable,
    canonical_tables,
    coverage_report,
    diff_tables,
    materialize_policy,
    policy_tags_along_path,
    rules_from_tagged_graph,
    rules_to_tagged_graph,
    tables_equal,
)
from repro.core.symmetry import SymmetryCertificate, certify
from repro.core.ttl_fallback import TtlFallback
from repro.core.tags import (
    INITIAL_TAG,
    LOSSY_TAG,
    PortKey,
    TaggedGraph,
    TNode,
    ingress_hops,
    tagged_walk,
)
from repro.core.verification import (
    VerificationReport,
    assert_deadlock_free,
    verify_tagged_graph,
)

__all__ = [
    "bruteforce_tagging",
    "longest_path_hops",
    "ClosTagger",
    "CompressionStats",
    "TcamEntry",
    "compress_in_ports",
    "compress_joint",
    "compression_stats",
    "expand",
    "first_match",
    "safeguard_entry",
    "tcam_program",
    "ElpSet",
    "PairwiseElpProvider",
    "ShortestPathElpProvider",
    "UpDownElpProvider",
    "bcube_elp",
    "canonical_elp_path",
    "clos_bounce_elp",
    "clos_updown_elp",
    "jellyfish_elp",
    "shortest_path_elp",
    "greedy_minimize",
    "TtlFallback",
    "deterministic_minimize",
    "DeterministicTagging",
    "IncrementalPlanner",
    "ReplanResult",
    "trace_elp",
    "elp_under_failures",
    "single_link_failure_scenarios",
    "TrafficClass",
    "naive_priority_count",
    "staggered_tagger",
    "LOSSY_QUEUE",
    "PipelineConfig",
    "QueueMap",
    "fit_to_queues",
    "merge_is_safe",
    "apply_tag_mapping",
    "remap_tables",
    "TaggerPlan",
    "compile_plan",
    "MatchActionRule",
    "RuleGenerationReport",
    "RuleTable",
    "canonical_tables",
    "coverage_report",
    "diff_tables",
    "tables_equal",
    "RuleDiff",
    "materialize_policy",
    "policy_tags_along_path",
    "rules_from_tagged_graph",
    "rules_to_tagged_graph",
    "INITIAL_TAG",
    "LOSSY_TAG",
    "PortKey",
    "TaggedGraph",
    "TNode",
    "ingress_hops",
    "tagged_walk",
    "VerificationReport",
    "assert_deadlock_free",
    "verify_tagged_graph",
    "SymmetryCertificate",
    "certify",
]
