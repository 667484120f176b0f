"""Unit tests for the metrics collector."""

from repro.runtime.metrics import Mechanism, MetricsCollector


def test_record_and_total_messages():
    m = MetricsCollector()
    m.record_message(Mechanism.NORMAL, "StepExecute")
    m.record_message(Mechanism.NORMAL, "StepExecute")
    m.record_message(Mechanism.ABORT, "WorkflowAbort")
    assert m.total_messages() == 3
    assert m.total_messages(Mechanism.NORMAL) == 2
    assert m.total_messages(Mechanism.ABORT) == 1


def test_interface_messages_sums_across_mechanisms():
    m = MetricsCollector()
    m.record_message(Mechanism.NORMAL, "StepExecute")
    m.record_message(Mechanism.FAILURE, "StepExecute")
    assert m.interface_messages("StepExecute") == 2


def test_node_load_queries():
    m = MetricsCollector()
    m.record_load("engine", Mechanism.NORMAL, 3.0)
    m.record_load("engine", Mechanism.FAILURE, 1.0)
    m.record_load("agent-1", Mechanism.NORMAL, 0.5)
    assert m.node_load("engine") == 4.0
    assert m.node_load("engine", Mechanism.NORMAL) == 3.0
    assert m.nodes() == ["agent-1", "engine"]


def test_max_and_mean_node_load():
    m = MetricsCollector()
    m.record_load("a", Mechanism.NORMAL, 4.0)
    m.record_load("b", Mechanism.NORMAL, 2.0)
    assert m.max_node_load(Mechanism.NORMAL) == 4.0
    assert m.mean_node_load(Mechanism.NORMAL, ["a", "b"]) == 3.0


def test_mean_node_load_includes_idle_nodes():
    m = MetricsCollector()
    m.record_load("a", Mechanism.NORMAL, 4.0)
    assert m.mean_node_load(Mechanism.NORMAL, ["a", "idle-1", "idle-2", "idle-3"]) == 1.0


def test_per_instance_normalization():
    m = MetricsCollector()
    m.instances_started = 4
    for __ in range(8):
        m.record_message(Mechanism.NORMAL, "StepExecute")
    assert m.per_instance_messages(Mechanism.NORMAL) == 2.0


def test_per_instance_with_zero_instances_is_zero():
    m = MetricsCollector()
    m.record_message(Mechanism.NORMAL, "X")
    assert m.per_instance_messages(Mechanism.NORMAL) == 0.0


def test_work_units_by_kind():
    m = MetricsCollector()
    m.record_work("agent-1", "execute", 5.0)
    m.record_work("agent-2", "execute", 3.0)
    m.record_work("agent-1", "compensate", 2.0)
    assert m.total_work("execute") == 8.0
    assert m.total_work("compensate") == 2.0
    assert m.total_work() == 10.0


def test_snapshot_is_immutable_copy():
    m = MetricsCollector()
    m.record_message(Mechanism.NORMAL, "X")
    snap = m.snapshot()
    m.record_message(Mechanism.NORMAL, "X")
    assert snap.messages_for(Mechanism.NORMAL) == 1
    assert m.total_messages(Mechanism.NORMAL) == 2


def test_reset_clears_everything():
    m = MetricsCollector()
    m.record_message(Mechanism.NORMAL, "X")
    m.record_load("n", Mechanism.NORMAL, 1.0)
    m.record_work("n", "execute", 1.0)
    m.instances_started = 5
    m.reset()
    assert m.total_messages() == 0
    assert m.node_load("n") == 0.0
    assert m.total_work() == 0.0
    assert m.instances_started == 0


def test_max_node_load_empty_pool():
    m = MetricsCollector()
    assert m.max_node_load(Mechanism.NORMAL) == 0.0


def test_merge_folds_counts_and_instances():
    a, b = MetricsCollector(), MetricsCollector()
    a.record_message(Mechanism.NORMAL, "StepExecute")
    b.record_message(Mechanism.NORMAL, "StepExecute")
    b.record_message(Mechanism.ABORT, "WorkflowAbort")
    b.record_load("agent-1", Mechanism.NORMAL, 2.0)
    b.record_work("agent-1", "execute", 3.0)
    b.instances_started = 4
    b.instances_committed = 3
    b.instances_aborted = 1
    result = a.merge(b)
    assert result is a  # chains
    assert a.total_messages(Mechanism.NORMAL) == 2
    assert a.total_messages(Mechanism.ABORT) == 1
    assert a.node_load("agent-1") == 2.0
    assert a.total_work("execute") == 3.0
    assert a.instances_started == 4
    assert a.instances_committed == 3
    assert a.instances_aborted == 1


def test_merge_does_not_mutate_other():
    a, b = MetricsCollector(), MetricsCollector()
    b.record_message(Mechanism.NORMAL, "X")
    a.merge(b)
    a.record_message(Mechanism.NORMAL, "X")
    assert b.total_messages() == 1


def test_merge_chain_combines_fleet():
    fleet = MetricsCollector()
    parts = []
    for node in ("a", "b", "c"):
        m = MetricsCollector()
        m.record_load(node, Mechanism.NORMAL, 1.0)
        parts.append(m)
    fleet.merge(parts[0]).merge(parts[1]).merge(parts[2])
    assert fleet.nodes() == ["a", "b", "c"]
