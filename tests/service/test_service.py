"""WorkflowService: submission, status, event streaming (no HTTP)."""

import asyncio

import pytest

from repro.errors import FrontEndError, LawsSyntaxError, SchemaError
from repro.service import WorkflowService, schema_from_dict

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

LAWS_TEXT = """
workflow Pair {
  step First  program p.first  writes a cost 1;
  step Second program p.second reads First.a writes b cost 1;
  arc First -> Second;
  output result = Second.b;
}
"""


async def wait_outcome(service, instance_id, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        record = service.instance(instance_id)
        if record["status"] != "running":
            return record
        await asyncio.sleep(0.02)
    raise AssertionError(f"instance {instance_id} did not finish")


def test_schema_from_dict_builds_valid_schema():
    schema = schema_from_dict(MINI_SCHEMA)
    assert schema.name == "Mini"
    assert set(schema.steps) == {"A", "B"}


def test_schema_from_dict_rejects_malformed_documents():
    with pytest.raises(SchemaError):
        schema_from_dict({"steps": [{"name": "A"}]})  # no name
    with pytest.raises(SchemaError):
        schema_from_dict({"name": "X"})  # no steps
    with pytest.raises(SchemaError):
        schema_from_dict({"name": "X", "steps": []})
    with pytest.raises(SchemaError):
        schema_from_dict({"name": "X", "steps": [{"program": "p"}]})


def test_submit_schema_json_and_finish():
    async def main():
        service = WorkflowService()
        service.start()
        try:
            result = service.submit(schema=MINI_SCHEMA, inputs={"x": 1})
            [iid] = result["instances"]
            record = await wait_outcome(service, iid)
            assert record["status"] == "committed"
            assert record["outputs"] == {"z": "B.z@1"}
        finally:
            await service.close()

    asyncio.run(main())


def test_submit_laws_and_finish():
    async def main():
        service = WorkflowService()
        service.start()
        try:
            result = service.submit(laws=LAWS_TEXT)
            assert result["workflow"] == "Pair"
            record = await wait_outcome(service, result["instances"][0])
            assert record["status"] == "committed"
        finally:
            await service.close()

    asyncio.run(main())


def test_resubmission_reuses_installed_document():
    async def main():
        service = WorkflowService()
        service.start()
        try:
            first = service.submit(schema=MINI_SCHEMA, inputs={"x": 1})
            second = service.submit(schema=MINI_SCHEMA, inputs={"x": 2})
            assert first["instances"] != second["instances"]
            # and by-name submission works once installed
            third = service.submit(workflow="Mini", inputs={"x": 3})
            for result in (first, second, third):
                record = await wait_outcome(service, result["instances"][0])
                assert record["status"] == "committed"
        finally:
            await service.close()

    asyncio.run(main())


def test_submission_errors():
    async def main():
        service = WorkflowService()
        service.start()
        try:
            with pytest.raises(FrontEndError):
                service.submit()  # nothing named
            with pytest.raises(FrontEndError):
                service.submit(workflow="Ghost")
            with pytest.raises(FrontEndError):
                service.submit(laws=LAWS_TEXT, schema=MINI_SCHEMA)
            with pytest.raises(FrontEndError):
                service.submit(schema=MINI_SCHEMA, instances=0)
            with pytest.raises(FrontEndError):
                service.instance("nope-1")
            with pytest.raises(FrontEndError):
                service.subscribe("nope-1")
        finally:
            await service.close()

    asyncio.run(main())


def test_event_stream_ends_with_final_status():
    async def main():
        service = WorkflowService()
        service.start()
        try:
            [iid] = service.submit(
                schema=MINI_SCHEMA, inputs={"x": 1}
            )["instances"]
            queue = service.subscribe(iid)
            events = []
            while True:
                event = await asyncio.wait_for(queue.get(), timeout=5.0)
                if event is None:
                    break
                events.append(event)
            assert events, "expected at least the final event"
            assert events[-1]["kind"] == "instance.finished"
            assert events[-1]["status"] == "committed"
            # late subscription sees the final status immediately
            late = service.subscribe(iid)
            assert (await late.get())["kind"] == "instance.finished"
            assert await late.get() is None
        finally:
            await service.close()

    asyncio.run(main())


def test_finished_event_follows_the_outcome_within_two_loop_turns():
    async def main():
        service = WorkflowService()
        service.start()
        try:
            [iid] = service.submit(
                schema=MINI_SCHEMA, inputs={"x": 1}
            )["instances"]
            queue = service.subscribe(iid)
            loop = asyncio.get_running_loop()
            turns_taken = loop.create_future()
            handler = service.system.on_outcome

            def tap(outcome):
                handler(outcome)
                assert iid in service.system.outcomes
                turns = 0

                def turn():
                    nonlocal turns
                    turns += 1
                    if iid not in service._subscribers or turns > 2:
                        turns_taken.set_result(turns)
                    else:
                        loop.call_soon(turn)

                loop.call_soon(turn)

            service.system.on_outcome = tap
            assert await asyncio.wait_for(turns_taken, 5.0) <= 2
            events = []
            while not queue.empty():
                events.append(queue.get_nowait())
            assert events[-1] is None
            assert events[-2]["kind"] == "instance.finished"
            # Every trace record of the instance — the engine's closing
            # `workflow.commit` included — precedes the final event.
            traced = [r.kind for r in service.system.trace
                      if r.detail.get("instance") == iid]
            assert traced[-1] == "workflow.commit"
            assert [e["kind"] for e in events[:-2]] == traced
        finally:
            await service.close()

    asyncio.run(main())


def test_deadline_runs_on_its_own_timer():
    async def main():
        service = WorkflowService(work_time_scale=0.01)
        service.start()
        try:
            slow = {"name": "Slow", "steps": [{"name": "Grind", "cost": 200}]}
            [late] = service.submit(schema=slow,
                                    deadline_s=0.05)["instances"]
            [quick] = service.submit(schema=MINI_SCHEMA, inputs={"x": 1},
                                     deadline_s=30.0)["instances"]
            timer = service._deadlines[quick]
            # Nothing polls: the service owns no task, and a pending
            # deadline is not engine work the clock would wait for.
            owned = [t for t in asyncio.all_tasks()
                     if "WorkflowService" in repr(t.get_coro())]
            assert owned == []
            record = await wait_outcome(service, late)
            assert record["deadline_exceeded"] is True
            assert service.admission.stats.deadline_exceeded == 1
            assert (await wait_outcome(service, quick))["status"] == "committed"
            assert service._deadlines == {}
            assert timer.cancelled()
            assert service.running_count() == 0
            assert await service.runtime.clock.join(timeout=5.0)
        finally:
            await service.close()

    asyncio.run(main())


def test_same_laws_text_is_parsed_once(monkeypatch):
    from repro.service import core

    calls = []
    real = core.load_laws
    monkeypatch.setattr(
        core, "load_laws", lambda text: calls.append(text) or real(text))

    async def main():
        service = WorkflowService()
        service.start()
        try:
            first = service.submit(laws=LAWS_TEXT)
            second = service.submit(laws=LAWS_TEXT)
            assert first["workflow"] == second["workflow"] == "Pair"
            assert len(calls) == 1
            # A different or malformed document still parses, and raises.
            with pytest.raises(FrontEndError):
                service.submit(laws=LAWS_TEXT + "\n")
            with pytest.raises(LawsSyntaxError):
                service.submit(laws="workflow {")
            assert len(calls) == 3
        finally:
            await service.close()

    asyncio.run(main())


def test_status_counters():
    async def main():
        service = WorkflowService(architecture="distributed", num_agents=4)
        service.start()
        try:
            before = service.status()
            assert before["ok"] and before["architecture"] == "distributed"
            [iid] = service.submit(
                schema=MINI_SCHEMA, inputs={"x": 1}
            )["instances"]
            await wait_outcome(service, iid)
            after = service.status()
            assert after["instances_submitted"] == 1
            assert after["instances_finished"] == 1
            assert after["workflows"] == ["Mini"]
            assert after["messages_sent"] > 0
        finally:
            await service.close()

    asyncio.run(main())
