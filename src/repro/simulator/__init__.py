"""Discrete-event RoCE/PFC fabric simulator.

Substitutes for the paper's Arista/Broadcom testbed (§8): per-priority
ingress accounting with XOFF/XON PAUSE generation and headroom, the
3-step Tagger pipeline with correct priority-transition handling, hosts
with PFC-honouring NICs, and runtime deadlock (wait-for cycle) detection.
"""

from repro.simulator.deadlock import (
    OracleSample,
    OracleSampler,
    blocked_queues,
    find_deadlock_cycle,
    is_deadlocked,
    wait_for_graph,
)
from repro.simulator.detection import (
    CLEAR_BROKEN,
    CLEAR_RECOVERED,
    CLEAR_RESUMED,
    ClearEvent,
    DeadlockDetector,
    Detection,
    DetectorConfig,
)
from repro.simulator.engine import Simulator
from repro.simulator.flow import Flow, pin_path
from repro.simulator.metrics import (
    DROP_LOSSLESS,
    DROP_LOSSY,
    DROP_NO_ROUTE,
    DROP_TTL,
    MetricsRecorder,
)
from repro.simulator.network import SimNetwork, passthrough_pipeline
from repro.simulator.packet import Packet, SimConfig
from repro.simulator.recovery import (
    DROP_DEADLOCK_RESET,
    DeadlockBreaker,
    RecoveryEvent,
)
from repro.simulator.dcqcn import CNP_PACKET_SIZE, DcqcnFlow, DcqcnParams
from repro.simulator.transport import (
    CONTROL_PACKET_SIZE,
    ReliableMessage,
    TransportStats,
)
from repro.simulator.trace import (
    PacketTracer,
    QueueSample,
    QueueSampler,
    TraceEvent,
)
from repro.simulator.watchdog import DROP_WATCHDOG, PfcWatchdog, StormEvent

__all__ = [
    "Simulator",
    "Flow",
    "pin_path",
    "Packet",
    "SimConfig",
    "SimNetwork",
    "passthrough_pipeline",
    "MetricsRecorder",
    "DROP_TTL",
    "DROP_LOSSY",
    "DROP_LOSSLESS",
    "DROP_NO_ROUTE",
    "blocked_queues",
    "wait_for_graph",
    "find_deadlock_cycle",
    "is_deadlocked",
    "OracleSample",
    "OracleSampler",
    "DeadlockDetector",
    "DetectorConfig",
    "Detection",
    "ClearEvent",
    "CLEAR_RESUMED",
    "CLEAR_BROKEN",
    "CLEAR_RECOVERED",
    "DeadlockBreaker",
    "RecoveryEvent",
    "DROP_DEADLOCK_RESET",
    "PfcWatchdog",
    "StormEvent",
    "DROP_WATCHDOG",
    "PacketTracer",
    "TraceEvent",
    "QueueSampler",
    "QueueSample",
    "ReliableMessage",
    "TransportStats",
    "CONTROL_PACKET_SIZE",
    "DcqcnFlow",
    "DcqcnParams",
    "CNP_PACKET_SIZE",
]
