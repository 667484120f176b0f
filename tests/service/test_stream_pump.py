"""The NDJSON stream pump: one write for whatever one wake-up finds.

``_stream_events`` runs against a real ``StreamWriter``/``StreamReader``
pair over a transport that only records: every ``write`` the pump issues
is one entry, ``pause_writing``/``resume_writing`` are the transport's
high-water mark, ``feed_eof`` is the client hanging up.  No sockets and
no clocks: a "turn" is a handful of ``sleep(0)``.
"""

import asyncio
import json

import pytest

from repro.service import WorkflowService
from repro.service.core import EventFeed
from repro.service.http import _STREAM_HEAD, _stream_events
from tests.service.test_service import MINI_SCHEMA

IID = "I-1"


class RecordingTransport(asyncio.Transport):
    def __init__(self):
        super().__init__()
        self.writes = []
        self.closing = False

    def write(self, data):
        self.writes.append(bytes(data))

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True


class Connection:
    """One accepted connection whose peer is this test."""

    opened = []

    def __init__(self):
        self.opened.append(self)
        self.reader = asyncio.StreamReader()
        self.protocol = asyncio.StreamReaderProtocol(self.reader)
        self.transport = RecordingTransport()
        self.protocol.connection_made(self.transport)
        self.writer = asyncio.StreamWriter(
            self.transport, self.protocol, self.reader, asyncio.get_running_loop())

    @property
    def writes(self):
        return self.transport.writes


async def turns(n=5):
    for __ in range(n):
        await asyncio.sleep(0)


def lines(*events):
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in events).encode()


def events(start, stop):
    return [{"kind": "step.done", "instance": IID, "n": n} for n in range(start, stop)]


def open_stream(service, firehose):
    """Start the pump on a fresh connection; returns (connection, pump task)."""
    connection = Connection()
    pump = asyncio.ensure_future(_stream_events(
        connection.reader, connection.writer, service, None if firehose else IID))
    return connection, pump


def the_feed(service, firehose):
    feeds = service._event_taps if firehose else service._subscribers.get(IID, [])
    assert len(feeds) == 1
    return feeds[0]


def detached(service):
    return service._event_taps == [] and IID not in service._subscribers


@pytest.fixture(autouse=True)
def close_connections():
    yield
    for connection in Connection.opened:
        connection.transport.close()
    Connection.opened.clear()


@pytest.fixture
def service():
    service = WorkflowService()
    service._submit_times[IID] = 0.0  # a known, running instance
    return service


@pytest.mark.parametrize("firehose", [False, True], ids=["instance", "firehose"])
def test_events_of_one_turn_are_one_write_and_the_terminator_ends_the_stream(service, firehose):
    async def main():
        connection, pump = open_stream(service, firehose)
        await turns()
        assert connection.writes == [_STREAM_HEAD]  # the head does not wait for events
        feed = the_feed(service, firehose)
        for event in events(0, 7):
            feed.put(event)
        await turns()
        assert connection.writes[1:] == [lines(*events(0, 7))]
        feed.put({"kind": "instance.finished", "instance": IID})
        feed.put(None)
        await asyncio.wait_for(pump, 2.0)
        assert connection.writes[2:] == [lines({"kind": "instance.finished", "instance": IID})]
        assert detached(service)

    asyncio.run(main())


@pytest.mark.parametrize("firehose", [False, True], ids=["instance", "firehose"])
def test_backlog_behind_a_paused_writer_arrives_complete_and_ordered(service, firehose):
    async def main():
        connection, pump = open_stream(service, firehose)
        await turns()
        feed = the_feed(service, firehose)
        connection.protocol.pause_writing()  # above the high-water mark
        feed.put(events(0, 1)[0])
        await turns()
        assert connection.writes[1:] == [lines(*events(0, 1))]  # written, drain() blocked
        for event in events(1, 60):
            feed.put(event)
            await asyncio.sleep(0)  # many turns' worth of events pile up
        assert len(connection.writes) == 2 and not pump.done()
        connection.protocol.resume_writing()
        await turns()
        assert connection.writes[2:] == [lines(*events(1, 60))]
        feed.put(None)
        await asyncio.wait_for(pump, 2.0)
        assert len(connection.writes) == 3
        assert detached(service)

    asyncio.run(main())


@pytest.mark.parametrize("firehose", [False, True], ids=["instance", "firehose"])
def test_client_eof_detaches_the_feed_idle_or_mid_backlog(service, firehose):
    async def main():
        # idle: the pump is waiting for the feed when the client hangs up
        connection, pump = open_stream(service, firehose)
        await turns()
        connection.reader.feed_eof()
        await asyncio.wait_for(pump, 2.0)
        assert connection.writes == [_STREAM_HEAD]
        assert detached(service)

        # mid-backlog: the writer is paused, events wait, then EOF
        connection, pump = open_stream(service, firehose)
        await turns()
        feed = the_feed(service, firehose)
        connection.protocol.pause_writing()
        feed.put(events(0, 1)[0])
        await turns()
        for event in events(1, 20):
            feed.put(event)
        connection.reader.feed_eof()
        await turns()
        assert not pump.done()  # still inside drain()
        connection.protocol.resume_writing()
        await asyncio.wait_for(pump, 2.0)
        assert len(connection.writes) == 2  # the backlog is not written to a gone client
        assert detached(service)

        # the connection is reset under a paused writer: drain() raises
        connection, pump = open_stream(service, firehose)
        await turns()
        feed = the_feed(service, firehose)
        connection.protocol.pause_writing()
        feed.put(events(0, 1)[0])
        await turns()
        connection.protocol.connection_lost(ConnectionResetError("peer reset"))
        with pytest.raises(ConnectionResetError):
            await asyncio.wait_for(pump, 2.0)
        assert detached(service)

    asyncio.run(main())


def test_begin_drain_terminates_the_firehose_but_not_an_instance_stream(service):
    async def main():
        firehose, firehose_pump = open_stream(service, True)
        instance, instance_pump = open_stream(service, False)
        await turns()
        service.begin_drain()
        await asyncio.wait_for(firehose_pump, 2.0)
        assert firehose.writes == [_STREAM_HEAD]
        await turns()
        assert not instance_pump.done() and IID in service._subscribers
        instance.reader.feed_eof()
        await asyncio.wait_for(instance_pump, 2.0)
        assert detached(service)

    asyncio.run(main())


def test_a_finished_instance_is_one_write_head_included():
    async def main():
        service = WorkflowService(work_time_scale=0.001)
        service.start()
        try:
            [iid] = service.submit(schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            live = service.subscribe(iid)
            while await asyncio.wait_for(live.get(), 5.0) is not None:
                pass
            connection = Connection()
            await asyncio.wait_for(_stream_events(
                connection.reader, connection.writer, service, iid), 2.0)
            [only] = connection.writes
            assert only.startswith(_STREAM_HEAD)
            [final] = only[len(_STREAM_HEAD):].splitlines()
            assert json.loads(final)["kind"] == "instance.finished"
            assert json.loads(final)["status"] == "committed"
            assert iid not in service._subscribers
        finally:
            await service.close()

    asyncio.run(main())


def test_live_instance_stream_carries_every_trace_record_then_the_final_event():
    """End to end through the service: what the pump writes is the
    instance's trace, in order, then ``instance.finished`` — fewer writes
    than events, because the events of one turn share one."""

    async def main():
        service = WorkflowService(work_time_scale=0.001)
        service.start()
        try:
            [iid] = service.submit(schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            connection = Connection()
            await asyncio.wait_for(_stream_events(
                connection.reader, connection.writer, service, iid), 5.0)
            body = b"".join(connection.writes)[len(_STREAM_HEAD):]
            streamed = [json.loads(line)["kind"] for line in body.splitlines()]
            traced = [r.kind for r in service.system.trace
                      if r.detail.get("instance") == iid]
            # subscribed a moment after the submission: a suffix of the trace
            assert len(streamed) > 3 and streamed[-1] == "instance.finished"
            assert streamed[:-1] == traced[1 - len(streamed):]
            assert len(connection.writes) < len(streamed)
        finally:
            await service.close()

    asyncio.run(main())


# -- the feed object ----------------------------------------------------------


def test_feed_surface_get_get_nowait_empty_take():
    async def main():
        feed = EventFeed()
        assert feed.empty()
        with pytest.raises(asyncio.QueueEmpty):
            feed.get_nowait()
        getter = asyncio.ensure_future(feed.get())
        await turns()
        assert not getter.done()
        feed.put({"n": 1})
        feed.put({"n": 2})
        assert await asyncio.wait_for(getter, 1.0) == {"n": 1}
        assert not feed.empty() and feed.get_nowait() == {"n": 2}
        assert feed.empty()
        feed.put({"n": 3})
        feed.put(None)
        assert feed.take() == [{"n": 3}, None]
        assert feed.empty() and feed.take() == []
        # a cancelled reader leaves the feed usable
        getter = asyncio.ensure_future(feed.get())
        await turns()
        getter.cancel()
        await turns()
        feed.put({"n": 4})
        assert await asyncio.wait_for(feed.get(), 1.0) == {"n": 4}

    asyncio.run(main())
