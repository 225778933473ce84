"""Unit tests for the lossy management network and fault plans."""

import pytest

from repro.deploy import (
    ACK_DUPLICATE,
    ACK_OK,
    FAULT_CRASH_AFTER_APPLY,
    FAULT_CRASH_BEFORE_ACK,
    FAULT_DUPLICATE,
    FAULT_KINDS,
    FAULT_OK,
    FAULT_PARTIAL,
    FAULT_REORDER,
    FAULT_TIMEOUT,
    NACK_PARTIAL,
    TIMEOUT,
    ApplyBatch,
    ApplyOp,
    FaultPlan,
    ManagementNetwork,
    OP_SET,
    SwitchAgent,
    random_fault_plan,
)
from repro.exceptions import DeploymentError

K1, K2 = (1, 1, 2), (1, 2, 3)


def net_with(fates=None, stuck=None):
    agents = {"A": SwitchAgent(switch="A")}
    faults = FaultPlan(
        fates={"A": tuple(fates)} if fates else {},
        stuck_from=stuck or {},
    )
    return ManagementNetwork(agents, faults), agents["A"]


def make_batch(batch_id="b1", epoch=1, ops=((OP_SET, K1, 2), (OP_SET, K2, 3))):
    return ApplyBatch(
        batch_id=batch_id,
        switch="A",
        epoch=epoch,
        ops=tuple(ApplyOp(*op) for op in ops),
    )


class TestFaultPlan:
    def test_schedule_then_ok(self):
        plan = FaultPlan(fates={"A": (FAULT_TIMEOUT, FAULT_OK, FAULT_PARTIAL)})
        assert plan.fate_for("A", 0) == FAULT_TIMEOUT
        assert plan.fate_for("A", 1) == FAULT_OK
        assert plan.fate_for("A", 2) == FAULT_PARTIAL
        assert plan.fate_for("A", 3) == FAULT_OK  # exhausted
        assert plan.fate_for("B", 0) == FAULT_OK  # unscheduled switch

    def test_stuck_overrides_schedule(self):
        plan = FaultPlan(fates={"A": (FAULT_OK,)}, stuck_from={"A": 1})
        assert plan.fate_for("A", 0) == FAULT_OK
        for index in range(1, 20):
            assert plan.fate_for("A", index) == FAULT_TIMEOUT

    def test_total_faults_and_describe(self):
        plan = FaultPlan(
            fates={"A": (FAULT_TIMEOUT, FAULT_OK), "B": (FAULT_OK,)},
            stuck_from={"C": 0},
        )
        assert plan.total_faults == 2
        assert "stuck: C" in plan.describe()

    def test_random_plan_is_seeded(self):
        a = random_fault_plan(["A", "B", "C"], seed=5, rate=0.5)
        b = random_fault_plan(["A", "B", "C"], seed=5, rate=0.5)
        assert a.fates == b.fates and a.stuck_from == b.stuck_from

    def test_random_plan_respects_cap(self):
        plan = random_fault_plan(
            ["A"], seed=1, rate=1.0, max_faults_per_switch=3, horizon=10
        )
        injected = [f for f in plan.fates["A"] if f != FAULT_OK]
        assert len(injected) == 3
        assert all(f in FAULT_KINDS for f in injected)

    def test_bad_rate_rejected(self):
        with pytest.raises(DeploymentError):
            random_fault_plan(["A"], seed=1, rate=1.5)

    @pytest.mark.parametrize("stuck_prob", [-3.0, 1.5])
    def test_bad_stuck_prob_rejected(self, stuck_prob):
        with pytest.raises(DeploymentError, match="stuck probability"):
            random_fault_plan(["A"], seed=1, stuck_prob=stuck_prob)


class TestFates:
    def test_ok_applies_and_acks(self):
        net, agent = net_with()
        reply = net.send(make_batch())
        assert reply.status == ACK_OK
        assert agent.rules == {K1: 2, K2: 3}
        assert net.rpc_count == 1

    def test_timeout_applies_nothing(self):
        net, agent = net_with(fates=[FAULT_TIMEOUT])
        reply = net.send(make_batch())
        assert reply.status == TIMEOUT
        assert agent.rules == {}

    def test_crash_before_ack_applies_then_loses_journal(self):
        net, agent = net_with(fates=[FAULT_CRASH_BEFORE_ACK])
        b = make_batch()
        assert net.send(b).status == TIMEOUT
        assert agent.rules == {K1: 2, K2: 3}  # TCAM write survived
        assert agent.crashes == 1
        assert agent.seen_batches == set()
        # Retry re-applies idempotently and finally acks.
        assert net.send(b).status == ACK_OK
        assert agent.rules == {K1: 2, K2: 3}

    def test_crash_after_apply_leaves_batch_unjournaled(self):
        net, agent = net_with(fates=[FAULT_CRASH_AFTER_APPLY])
        assert net.send(make_batch()).status == TIMEOUT
        assert agent.rules == {K1: 2, K2: 3}
        assert agent.seen_batches == set()

    def test_partial_applies_half(self):
        net, agent = net_with(fates=[FAULT_PARTIAL])
        reply = net.send(make_batch())
        assert reply.status == NACK_PARTIAL
        assert agent.rules == {K1: 2}  # strict prefix (1 of 2 ops)

    def test_duplicate_delivers_twice_applies_once(self):
        net, agent = net_with(fates=[FAULT_DUPLICATE])
        reply = net.send(make_batch())
        assert reply.status == ACK_DUPLICATE
        assert reply.acked
        assert agent.rules == {K1: 2, K2: 3}
        assert agent.applies == 2  # 2 ops, once each — no double apply

    def test_reorder_defers_until_next_send(self):
        net, agent = net_with(fates=[FAULT_REORDER])
        first = make_batch(batch_id="b1", ops=((OP_SET, K1, 2),))
        second = make_batch(batch_id="b2", ops=((OP_SET, K2, 3),))
        assert net.send(first).status == TIMEOUT
        assert agent.rules == {}  # still in flight
        assert net.send(second).status == ACK_OK
        # The deferred batch arrived after (i.e. reordered behind) b2.
        assert agent.rules == {K1: 2, K2: 3}

    def test_flush_deferred_delivers_stragglers(self):
        net, agent = net_with(fates=[FAULT_REORDER])
        net.send(make_batch(ops=((OP_SET, K1, 2),)))
        assert agent.rules == {}
        assert net.flush_deferred() == 1
        assert agent.rules == {K1: 2}

    def test_deferred_stale_epoch_bounces(self):
        """A reordered old-epoch batch must not clobber newer state."""
        net, agent = net_with(fates=[FAULT_REORDER])
        old_epoch = make_batch(batch_id="old", epoch=1, ops=((OP_SET, K1, 7),))
        new_epoch = make_batch(batch_id="new", epoch=2, ops=((OP_SET, K1, 2),))
        net.send(old_epoch)  # deferred
        net.send(new_epoch)  # applies, then old is delivered late
        assert agent.rules == {K1: 2}  # stale-epoch guard held


class TestReadback:
    def test_read_returns_snapshot(self):
        net, agent = net_with()
        agent.rules[K1] = 2
        assert net.read("A") == {K1: 2}

    def test_read_fault_degrades_to_timeout(self):
        net, _ = net_with(fates=[FAULT_PARTIAL])
        assert net.read("A") is None

    def test_unknown_switch_raises(self):
        net, _ = net_with()
        with pytest.raises(DeploymentError):
            net.send(
                ApplyBatch(batch_id="x", switch="ghost", epoch=1, ops=())
            )
