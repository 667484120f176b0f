"""Crash durability: the service WAL and the recovery boot path.

The kill -9 acceptance itself lives in ``scripts/serve_chaos.py`` (real
subprocesses, real SIGKILL); these tests cover the same machinery
in-process — log round-trips, torn tails, mid-log corruption, document
re-install, in-flight re-drive with alias resolution, and the
at-most-once outcome guarantee.
"""

import asyncio
import json
import zlib

import pytest

from repro.errors import StorageError
from repro.service import WorkflowService
from repro.service.durability import ServiceLog, ServiceState, record_checksum
from repro.storage.tables import InstanceStatus, StepStatus

MINI_SCHEMA = {
    "name": "Mini",
    "inputs": ["x"],
    "steps": [
        {"name": "A", "outputs": ["y"], "cost": 1},
        {"name": "B", "inputs": ["A.y"], "outputs": ["z"]},
    ],
    "arcs": [{"src": "A", "dst": "B"}],
    "outputs": {"z": "B.z"},
}


async def wait_for(predicate, timeout=10.0, what="condition"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        result = predicate()
        if result:
            return result
        await asyncio.sleep(0.02)
    raise AssertionError(f"{what} did not happen within {timeout}s")


def abandon(service):
    """What a kill leaves of a service: the process timer and the log's
    file handle die with the process, and nothing buffered is flushed."""
    service.profiler.stop()
    service._log._fh.close()


# ---------------------------------------------------------------- ServiceLog


def test_service_log_roundtrip(tmp_path):
    log = ServiceLog(tmp_path)
    log.append("document", {"schema": {"name": "Mini"}})
    log.append("submit", {"instance": "Mini-1", "workflow": "Mini",
                          "inputs": {"x": 1}, "deadline": None})
    assert log.flush() == 2
    log.append("outcome", {"instance": "Mini-1", "status": "committed"})
    log.close()  # close flushes the tail

    reopened = ServiceLog(tmp_path)
    assert not reopened.torn_tail
    assert [r.kind for r in reopened.records()] == [
        "document", "submit", "outcome"
    ]
    assert reopened.wal.last_lsn() == 3
    # The in-memory views carry the engine log's checksum; each line on
    # disk carries the service.wal one.
    lines = [json.loads(line) for line in reopened.path.read_bytes().splitlines()]
    for record, line in zip(reopened.records(), lines, strict=True):
        assert (line["lsn"], line["kind"], line["payload"]) == (
            record.lsn, record.kind, record.payload)
        assert line["crc"] == record_checksum(record.lsn, record.kind, record.payload)
    reopened.close()


def test_canonical_form_is_pinned():
    """``service.wal`` files on disk carry these checksums: the canonical
    form (sorted keys, ``str()`` for what JSON cannot hold) must not move.
    Values computed before the encoder was hoisted to module level."""
    assert record_checksum(
        1, "summary", {"instance_id": "i1", "status": "running"}) == 3120731542
    assert record_checksum(7, "tracker", {"instance_id": "wf-3", "tracker": {
        "reported": {"S2": 1, "S1": 2}, "finished": False, "at": 12.5,
        "note": "caf\u00e9", "none": None}}) == 1004099412
    assert record_checksum(42, "instance_snapshot", {
        "status": InstanceStatus.COMMITTED, "step": StepStatus.DONE,
        "z": [1, 2.0, True], "a": {"k": (1, 2)}}) == 3463795946


#: One record of each kind the service writes, with what the encoder has to
#: get right: non-ASCII text, tuples, enum members, floats, None.
PAYLOADS = [
    ("document", {"schema": {"name": "Caf\u00e9", "steps": [{"name": "A"}]}}),
    ("submit", {"instance": "Mini-1", "workflow": "Mini",
                "inputs": {"x": (1, 2), "note": "\u2713 na\u00efve"},
                "deadline": 2.5}),
    ("outcome", {"instance": "Mini-1", "status": InstanceStatus.COMMITTED,
                 "outputs": {"z": None, "w": [1.0, -0.0]},
                 "finished_at": 3.25}),
    ("redrive", {"original": "Mini-1", "replacement": "Mini-2"}),
]


def reference_line(lsn, kind, payload):
    """A record as the service log wrote it when it encoded each payload
    twice: once for the crc, once for the line."""
    crc = zlib.crc32(json.dumps([lsn, kind, payload], sort_keys=True,
                                default=str).encode("utf-8"))
    return (json.dumps({"lsn": lsn, "kind": kind, "payload": payload,
                        "crc": crc}, sort_keys=True, default=str)
            + "\n").encode("utf-8")


def test_each_line_is_the_canonical_json_of_its_record(tmp_path):
    log = ServiceLog(tmp_path)
    for kind, payload in PAYLOADS:
        log.append(kind, payload)
    log.close()
    assert log.path.read_bytes() == b"".join(
        reference_line(lsn, kind, payload)
        for lsn, (kind, payload) in enumerate(PAYLOADS, start=1))


def test_log_written_by_the_two_encode_writer_reloads_cleanly(tmp_path):
    (tmp_path / "service.wal").write_bytes(b"".join(
        reference_line(lsn, kind, payload)
        for lsn, (kind, payload) in enumerate(PAYLOADS, start=1)))
    log = ServiceLog(tmp_path)
    assert not log.torn_tail
    assert [r.kind for r in log.records()] == [kind for kind, __ in PAYLOADS]
    assert log.records()[2].payload["status"] == "InstanceStatus.COMMITTED"
    log.close()


def test_service_log_truncates_torn_tail(tmp_path):
    log = ServiceLog(tmp_path)
    log.append("submit", {"instance": "Mini-1"})
    log.append("submit", {"instance": "Mini-2"})
    log.close()
    # kill -9 mid-write: the final record is half a line of bytes.
    with open(log.path, "ab") as fh:
        fh.write(b'{"lsn": 3, "kind": "outcome", "payl')

    reopened = ServiceLog(tmp_path)
    assert reopened.torn_tail
    assert [r.payload["instance"] for r in reopened.records()] == [
        "Mini-1", "Mini-2"
    ]
    # The torn bytes are gone from disk; appending continues cleanly.
    reopened.append("outcome", {"instance": "Mini-1"})
    reopened.close()
    third = ServiceLog(tmp_path)
    assert not third.torn_tail
    assert third.wal.last_lsn() == 3
    third.close()


@pytest.mark.parametrize("flushes", [1, 2])
def test_a_record_without_its_newline_is_the_torn_tail(tmp_path, flushes):
    """A kill can cut a write just before a line's newline.  That record's
    batch was never acknowledged: it is the torn tail, and the records
    flushed after the reopen must survive the next one."""
    log = ServiceLog(tmp_path)
    for index in range(3):
        log.append("submit", {"instance": f"W-{index}"})
    log.close()
    log.path.write_bytes(log.path.read_bytes()[:-1])

    reopened = ServiceLog(tmp_path)
    assert reopened.torn_tail
    assert [r.payload["instance"] for r in reopened.records()] == ["W-0", "W-1"]
    later = [f"W-{3 + index}" for index in range(flushes)]
    for iid in later:
        reopened.append("submit", {"instance": iid})
        reopened.flush()
    reopened.close()

    third = ServiceLog(tmp_path)
    assert not third.torn_tail
    assert [r.payload["instance"] for r in third.records()] == ["W-0", "W-1", *later]
    assert [r.lsn for r in third.records()] == list(range(1, 3 + flushes))
    third.close()


def test_service_log_refuses_a_missing_record(tmp_path):
    log = ServiceLog(tmp_path)
    for index in range(3):
        log.append("submit", {"instance": f"Mini-{index + 1}"})
    log.close()
    lines = log.path.read_bytes().splitlines(keepends=True)
    log.path.write_bytes(lines[0] + lines[2])  # every line left is valid

    with pytest.raises(StorageError, match="skips from lsn 2 to 3"):
        ServiceLog(tmp_path)


def test_service_log_rejects_mid_log_corruption(tmp_path):
    log = ServiceLog(tmp_path)
    for index in range(3):
        log.append("submit", {"instance": f"Mini-{index + 1}"})
    log.close()
    lines = log.path.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"corrupted": true}\n'
    log.path.write_bytes(b"".join(lines))

    with pytest.raises(StorageError) as excinfo:
        ServiceLog(tmp_path)
    assert "corruption" in str(excinfo.value)


def test_service_log_checksum_mismatch_is_corruption(tmp_path):
    log = ServiceLog(tmp_path)
    log.append("submit", {"instance": "Mini-1"})
    log.append("submit", {"instance": "Mini-2"})
    log.append("submit", {"instance": "Mini-3"})
    log.close()
    lines = log.path.read_bytes().splitlines(keepends=True)
    doc = json.loads(lines[1])
    doc["payload"]["instance"] = "Mini-999"  # payload no longer matches crc
    lines[1] = (json.dumps(doc, sort_keys=True) + "\n").encode()
    log.path.write_bytes(b"".join(lines))

    with pytest.raises(StorageError):
        ServiceLog(tmp_path)


# -------------------------------------------------------------- ServiceState


def test_service_state_replay_and_resolution():
    state_log_records = []

    class FakeRecord:
        def __init__(self, kind, payload):
            self.kind = kind
            self.payload = payload

    def rec(kind, **payload):
        state_log_records.append(FakeRecord(kind, payload))

    rec("document", schema={"name": "Mini"})
    rec("submit", instance="Mini-1", workflow="Mini", inputs={})
    rec("submit", instance="Mini-2", workflow="Mini", inputs={})
    rec("submit", instance="Mini-3", workflow="Mini", inputs={})
    rec("outcome", instance="Mini-1", status="committed")
    # Mini-2 was re-driven by a previous recovery, twice (two crashes).
    rec("redrive", original="Mini-2", replacement="Mini-4")
    rec("submit", instance="Mini-4", workflow="Mini", inputs={})
    rec("redrive", original="Mini-4", replacement="Mini-5")
    rec("submit", instance="Mini-5", workflow="Mini", inputs={})

    state = ServiceState.from_records(state_log_records)
    assert len(state.documents) == 1
    assert state.resolve("Mini-2") == "Mini-5"  # chain spans two crashes
    assert state.resolve("Mini-1") == "Mini-1"
    # In-flight = acknowledged, no outcome, not superseded: 3 and 5.
    assert [p["instance"] for p in state.inflight()] == ["Mini-3", "Mini-5"]
    assert state.max_instance_index() == 5


def test_service_state_skips_fragment_records_of_old_logs(tmp_path):
    # Daemons before PR 14 journaled a per-node engine snapshot after each
    # outcome; nothing ever read it.  Their logs must still replay.
    log = ServiceLog(tmp_path)
    log.append("document", {"schema": MINI_SCHEMA})
    log.append("submit", {"instance": "Mini-1", "workflow": "Mini",
                          "inputs": {"x": 1}, "deadline": None})
    log.append("outcome", {"instance": "Mini-1", "workflow": "Mini",
                           "status": "committed", "outputs": {"z": 3},
                           "finished_at": 0.5, "original": None})
    log.append("fragment", {"instance": "Mini-1", "node": "engine",
                            "state": {"instance_id": "Mini-1",
                                      "summary": "committed"}})
    log.close()

    reopened = ServiceLog(tmp_path)
    state = ServiceState.from_records(reopened.records())
    reopened.close()
    assert list(state.outcomes) == ["Mini-1"]
    assert state.inflight() == []
    assert not hasattr(state, "fragments")

    async def main():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        try:
            assert service.status()["instances_redriven"] == 0
            record = service.instance("Mini-1")
            assert record["status"] == "committed"
            assert record["recovered"] is True
        finally:
            await service.close()

    asyncio.run(main())


def test_service_state_rejects_unknown_kind():
    class FakeRecord:
        kind = "mystery"
        payload = {}

    with pytest.raises(StorageError):
        ServiceState.from_records([FakeRecord()])


# ---------------------------------------------------------- service recovery


def test_recovery_redrives_inflight_instances(tmp_path):
    # Phase 1: acknowledge submissions slow enough that nothing finishes,
    # then abandon the service without any shutdown hook (the loop dies
    # with asyncio.run) — the crash the WAL exists for.
    async def crash_phase():
        service = WorkflowService(work_time_scale=5.0, state_dir=tmp_path)
        service.start()
        result = service.submit(schema=MINI_SCHEMA, inputs={"x": 1},
                                instances=3)
        abandon(service)
        return result["instances"]

    originals = asyncio.run(crash_phase())
    assert len(originals) == 3

    async def recover_phase():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        try:
            status = service.status()
            assert status["durable"] is True
            assert status["instances_redriven"] == 3
            # Every original id resolves through its redrive alias to a
            # *fresh* id (acknowledged ids are never reused)...
            for original in originals:
                replacement = service._state.resolve(original)
                assert replacement != original
                assert replacement not in originals
            # ...and the re-driven instances run to an engine outcome.
            await wait_for(
                lambda: all(
                    service.instance(o)["status"] == "committed"
                    for o in originals
                ),
                what="re-driven instances committing",
            )
            record = service.instance(originals[0])
            assert record["instance"] == originals[0]
            assert record["resolved"] == service._state.resolve(originals[0])
            # New submissions continue past the reserved id range.
            fresh = service.submit(workflow="Mini", inputs={"x": 9})
            assert fresh["instances"][0] not in originals
        finally:
            await service.close()

    asyncio.run(recover_phase())


def crash_then_recover(state_dir):
    """Acknowledge 3 slow instances and abandon the service, then boot a
    recovery that re-drives all 3 and abandon it too.  Returns the
    acknowledged ids, the log's size before the recovery, and the
    abandoned recovered service."""
    async def crash():
        service = WorkflowService(work_time_scale=5.0, state_dir=state_dir)
        service.start()
        ids = service.submit(schema=MINI_SCHEMA, inputs={"x": 1}, instances=3)["instances"]
        abandon(service)
        return ids

    originals = asyncio.run(crash())
    before = (state_dir / "service.wal").stat().st_size

    async def recover():
        service = WorkflowService(work_time_scale=5.0, state_dir=state_dir)
        service.start()
        abandon(service)
        return service

    return originals, before, asyncio.run(recover())


def test_every_cut_of_a_recovery_keeps_one_carrier_per_submission(tmp_path):
    """Wherever a kill cuts the recovery's re-drive records, the next boot
    sees each acknowledged instance carried by exactly one in-flight id:
    a cut can drop a re-drive, never split it into a second submission."""
    originals, before, __ = crash_then_recover(tmp_path / "state")
    data = (tmp_path / "state" / "service.wal").read_bytes()
    assert len(data) > before
    cut_dir = tmp_path / "cut"
    cut_dir.mkdir()
    for cut in range(before, len(data) + 1):
        (cut_dir / "service.wal").write_bytes(data[:cut])
        log = ServiceLog(cut_dir)
        state = ServiceState.from_records(log.records())
        log.close()
        carriers = [payload["instance"] for payload in state.inflight()]
        assert len(carriers) == 3, (cut, carriers)
        assert sorted(state.resolve(iid) for iid in originals) == sorted(carriers), cut


def test_the_recovered_view_is_the_one_the_next_boot_replays(tmp_path):
    originals, __, service = crash_then_recover(tmp_path)
    log = ServiceLog(tmp_path)
    replayed = ServiceState.from_records(log.records())
    log.close()
    assert len(service._state.redrives) == 3
    assert service._state.redrives == replayed.redrives
    assert ([service._state.resolve(iid) for iid in originals]
            == [replayed.resolve(iid) for iid in originals])
    assert service._state.inflight() == replayed.inflight()


def test_recovery_restores_finished_outcomes_at_most_once(tmp_path):
    async def commit_phase():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        [iid] = service.submit(schema=MINI_SCHEMA,
                               inputs={"x": 1})["instances"]
        # Once the service shows the outcome it is on disk; abandon the
        # service without closing it.
        await wait_for(
            lambda: service.instance(iid)["status"] == "committed",
            what="outcome publication",
        )
        abandon(service)
        return iid

    iid = asyncio.run(commit_phase())

    async def recover_phase():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        try:
            status = service.status()
            assert status["instances_recovered"] == 1
            assert status["instances_redriven"] == 0
            record = service.instance(iid)
            # Served from the durable log: the engine never re-ran it.
            assert record["status"] == "committed"
            assert record["recovered"] is True
            assert iid not in service.system.outcomes
            # At-most-once: the log still holds exactly one outcome.
            outcomes = [r for r in service._log.records()
                        if r.kind == "outcome"]
            assert len(outcomes) == 1
        finally:
            await service.close()

    asyncio.run(recover_phase())


def test_close_right_after_an_outcome_loses_nothing(tmp_path):
    # The outcome is appended inside the engine's own handler, so a close
    # in the same loop turn (SIGTERM racing a commit) still journals it.
    async def commit_and_close():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        [iid] = service.submit(schema=MINI_SCHEMA,
                               inputs={"x": 1})["instances"]
        recorded = asyncio.Event()
        handler = service.system.on_outcome

        def tap(outcome):
            handler(outcome)
            recorded.set()

        service.system.on_outcome = tap
        stream = service.subscribe(iid)
        await asyncio.wait_for(recorded.wait(), 10.0)
        await service.close()  # no sleep: the publish turn has not run yet
        events = []
        while not stream.empty():
            events.append(stream.get_nowait())
        assert events[-1] is None
        assert events[-2]["kind"] == "instance.finished"
        return iid

    iid = asyncio.run(commit_and_close())

    log = ServiceLog(tmp_path)
    state = ServiceState.from_records(log.records())
    log.close()
    assert state.outcomes[iid]["status"] == "committed"
    assert state.inflight() == []

    async def recover():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        try:
            assert service.status()["instances_redriven"] == 0
            assert service.instance(iid)["recovered"] is True
        finally:
            await service.close()

    asyncio.run(recover())


def test_outcome_is_invisible_until_its_record_is_flushed(tmp_path):
    async def main():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        try:
            [iid] = service.submit(schema=MINI_SCHEMA,
                                   inputs={"x": 1})["instances"]
            stream = service.subscribe(iid)
            emitted = service.subscribe(iid)  # never read: counts emissions
            log = service._log
            seen = {}
            handler = service.system.on_outcome

            def tap(outcome):
                handler(outcome)
                # Recorded by the engine, appended, not yet fsynced.
                seen["flushes"] = log.flushes
                seen["emitted"] = len(emitted.take())
                seen["kind"] = log.records()[-1].kind
                seen["status"] = service.instance(iid)["status"]
                seen["listed"] = service.instances()[0]["status"]
                seen["late_subscriber"] = service.subscribe(iid)

            service.system.on_outcome = tap
            read = 0
            while True:
                event = await asyncio.wait_for(stream.get(), 10.0)
                assert event is not None
                if event["kind"] == "instance.finished":
                    break
                # An event emitted before the outcome may be read after it;
                # one emitted after it is read after the flush.
                if read >= seen.get("emitted", read + 1):
                    assert log.flushes > seen["flushes"], event
                read += 1
            assert seen["kind"] == "outcome"
            assert seen["status"] == seen["listed"] == "running"
            assert log.flushes > seen["flushes"]
            assert event["status"] == "committed"
            assert service.instance(iid)["status"] == "committed"
            # A subscriber arriving in the gap waits for the flush too.
            late = seen["late_subscriber"]
            kinds = [(await late.get())["kind"] for __ in range(2)]
            assert kinds == ["workflow.commit", "instance.finished"]
            assert await late.get() is None
        finally:
            await service.close()

    asyncio.run(main())


@pytest.mark.parametrize("architecture", ["centralized", "parallel", "distributed"])
def test_stream_pump_takes_no_outcome_event_before_its_flush(tmp_path, architecture):
    """A reader shaped like the HTTP pump (``wait`` once, ``take`` all)
    takes the closing ``workflow.commit`` — and whatever the instance
    emits after its outcome — only once the outcome record is on disk,
    from its own feed and from the firehose alike."""
    async def main():
        service = WorkflowService(architecture=architecture, work_time_scale=0.001,
                                  state_dir=tmp_path)
        service.start()
        try:
            [iid] = service.submit(schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            log = service._log
            at_outcome = {}
            handler = service.system.on_outcome

            def tap(outcome):
                handler(outcome)
                at_outcome.setdefault(outcome.instance_id, log.flushes)

            service.system.on_outcome = tap
            taken = {"instance": [], "firehose": []}

            async def pump(feed, name):
                while True:
                    if feed.empty():
                        await feed.wait()
                    for event in feed.take():
                        if event is None:
                            return
                        taken[name].append((event["kind"], log.flushes))

            firehose = service.subscribe_events()
            pumps = [asyncio.create_task(pump(service.subscribe(iid), "instance")),
                     asyncio.create_task(pump(firehose, "firehose"))]
            await asyncio.wait_for(pumps[0], 10.0)
            service.unsubscribe_events(firehose)
            firehose.put(None)  # the instance's events are all in by now
            await asyncio.wait_for(pumps[1], 10.0)
        finally:
            await service.close()
        flushes = at_outcome[iid]
        for name, events in taken.items():
            kinds = [kind for kind, __ in events]
            assert "workflow.commit" in kinds, (name, kinds)
            early = [kind for kind, seen in events[kinds.index("workflow.commit"):]
                     if seen <= flushes]
            assert early == [], (name, early)
        assert taken["instance"][-1][0] == "instance.finished"

    asyncio.run(main())


def test_outcomes_of_one_loop_turn_share_one_flush(tmp_path):
    async def main():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        try:
            ids = service.submit(schema=MINI_SCHEMA, inputs={"x": 1},
                                 instances=2)["instances"]
            await wait_for(
                lambda: all(service.instance(i)["status"] == "committed"
                            for i in ids), what="both commits")
            # Two more outcomes recorded back to back, as two engine
            # handlers of one loop turn would: one fsync covers both.
            more = ["Mini-90", "Mini-91"]
            for iid in more:
                service._track(iid, service.runtime.clock.now, None)
            flushes = service._log.flushes
            for iid in more:
                service.system.engine.emit("workflow.commit", instance=iid,
                                           schema="Mini", outputs={"z": 1})
            assert service._log.flushes == flushes
            await wait_for(
                lambda: service.instance(more[1])["status"] == "committed",
                what="publication")
            assert service._log.flushes == flushes + 1
        finally:
            await service.close()

    asyncio.run(main())


def test_memory_only_service_has_no_log():
    async def main():
        service = WorkflowService(work_time_scale=0.001)
        service.start()
        try:
            assert service.status()["durable"] is False
            [iid] = service.submit(schema=MINI_SCHEMA,
                                   inputs={"x": 1})["instances"]
            await wait_for(lambda: iid in service.system.outcomes,
                           what="commit")
        finally:
            await service.close()

    asyncio.run(main())
