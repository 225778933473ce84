"""Unit tests for the per-switch deployment agent."""

import pytest

from repro.core.rules import RuleDiff, RuleTable
from repro.deploy import (
    ACK_DUPLICATE,
    ACK_OK,
    ACK_STALE,
    NACK_PARTIAL,
    OP_REMOVE,
    OP_SET,
    ApplyBatch,
    ApplyOp,
    SwitchAgent,
    fleet_from_tables,
    ops_from_diff,
    ops_to_table,
)
from repro.exceptions import DeploymentError

K1, K2, K3 = (1, 1, 2), (1, 2, 3), (2, 3, 4)


def batch(switch="S1", batch_id="b1", epoch=1, ops=()):
    return ApplyBatch(batch_id=batch_id, switch=switch, epoch=epoch, ops=tuple(ops))


class TestApplyOp:
    def test_set_requires_tag(self):
        with pytest.raises(DeploymentError):
            ApplyOp(OP_SET, K1)

    def test_unknown_action_rejected(self):
        with pytest.raises(DeploymentError):
            ApplyOp("upsert", K1, 2)

    def test_remove_carries_no_tag(self):
        op = ApplyOp(OP_REMOVE, K1)
        assert op.new_tag is None


class TestHandle:
    def test_set_and_remove_are_applied(self):
        agent = SwitchAgent(switch="S1", rules={K3: 9})
        reply = agent.handle(
            batch(ops=[ApplyOp(OP_SET, K1, 2), ApplyOp(OP_REMOVE, K3)])
        )
        assert reply.status == ACK_OK
        assert reply.acked
        assert reply.applied_ops == 2
        assert agent.rules == {K1: 2}

    def test_duplicate_batch_acks_without_reapplying(self):
        agent = SwitchAgent(switch="S1")
        b = batch(ops=[ApplyOp(OP_SET, K1, 2)])
        assert agent.handle(b).status == ACK_OK
        before = agent.applies
        reply = agent.handle(b)
        assert reply.status == ACK_DUPLICATE
        assert reply.acked
        assert agent.applies == before

    def test_stale_epoch_rejected(self):
        agent = SwitchAgent(switch="S1")
        agent.handle(batch(batch_id="new", epoch=5, ops=[ApplyOp(OP_SET, K1, 2)]))
        reply = agent.handle(
            batch(batch_id="late", epoch=3, ops=[ApplyOp(OP_SET, K1, 7)])
        )
        assert reply.status == ACK_STALE
        assert not reply.acked
        assert agent.rules[K1] == 2  # late write rejected

    def test_partial_applies_prefix_then_nacks(self):
        agent = SwitchAgent(switch="S1")
        reply = agent.handle(
            batch(ops=[ApplyOp(OP_SET, K1, 2), ApplyOp(OP_SET, K2, 3)]),
            partial_after=1,
        )
        assert reply.status == NACK_PARTIAL
        assert reply.applied_ops == 1
        assert agent.rules == {K1: 2}
        # The nacked batch was not journaled: a retry fully applies.
        retry = agent.handle(
            batch(ops=[ApplyOp(OP_SET, K1, 2), ApplyOp(OP_SET, K2, 3)])
        )
        assert retry.status == ACK_OK
        assert agent.rules == {K1: 2, K2: 3}

    def test_wrong_switch_delivery_raises(self):
        agent = SwitchAgent(switch="S1")
        with pytest.raises(DeploymentError):
            agent.handle(batch(switch="S2"))

    def test_op_filter_drops_but_still_acks(self):
        agent = SwitchAgent(switch="S1", op_filter=lambda op: None)
        reply = agent.handle(batch(ops=[ApplyOp(OP_SET, K1, 2)]))
        assert reply.status == ACK_OK
        assert agent.rules == {}


class TestCrash:
    def test_crash_keeps_tcam_loses_soft_state(self):
        agent = SwitchAgent(switch="S1")
        agent.handle(batch(epoch=4, ops=[ApplyOp(OP_SET, K1, 2)]))
        agent.crash()
        assert agent.rules == {K1: 2}
        assert agent.last_epoch == -1
        assert agent.seen_batches == set()
        assert agent.crashes == 1

    def test_retry_after_crash_is_idempotent(self):
        agent = SwitchAgent(switch="S1")
        b = batch(ops=[ApplyOp(OP_SET, K1, 2), ApplyOp(OP_REMOVE, K3)])
        agent.handle(b)
        agent.crash()
        reply = agent.handle(b)  # journal gone: re-applies, same result
        assert reply.status == ACK_OK
        assert agent.rules == {K1: 2}


class TestOpCompilation:
    def test_ops_from_diff_sets_before_removes(self):
        diff = RuleDiff(
            switch="S1",
            added=((K1, 2),),
            removed=((K3, 9),),
            changed=((K2, 3, 4),),
        )
        ops = ops_from_diff(diff)
        actions = [op.action for op in ops]
        assert actions == [OP_SET, OP_SET, OP_REMOVE]
        assert ops[0] == ApplyOp(OP_SET, K1, 2)
        assert ops[1] == ApplyOp(OP_SET, K2, 4)
        assert ops[2] == ApplyOp(OP_REMOVE, K3)

    def test_ops_to_table_reconciles_exactly(self):
        current = {K1: 2, K3: 9}
        target = {K1: 5, K2: 3}
        agent = SwitchAgent(switch="S1", rules=dict(current))
        agent.handle(batch(ops=ops_to_table(current, target)))
        assert agent.rules == target

    def test_ops_to_table_identity_is_empty(self):
        assert ops_to_table({K1: 2}, {K1: 2}) == ()


class TestFleet:
    def test_fleet_from_tables_seeds_rules_and_extras(self):
        tables = {"A": RuleTable(switch="A", rules={K1: 2})}
        fleet = fleet_from_tables(tables, extra_switches=("B",))
        assert fleet["A"].rules == {K1: 2}
        assert fleet["A"].rules is not tables["A"].rules  # defensive copy
        assert fleet["B"].rules == {}

    def test_table_roundtrip(self):
        agent = SwitchAgent(switch="A", rules={K1: 2})
        table = agent.table()
        assert isinstance(table, RuleTable)
        assert table.rules == {K1: 2}
        assert agent.snapshot() == {K1: 2}
        assert agent.snapshot() is not agent.rules
