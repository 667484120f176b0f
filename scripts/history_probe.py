#!/usr/bin/env python
"""What a serving daemon still holds for the instances it has finished.

One in-process :class:`repro.service.WorkflowService` per architecture,
memory-only, observability plane on (what ``repro serve`` runs) with a
trace capacity small enough that both rings are full after the warm-up,
so the plane's window does not read as growth.  Sequential batches of 32
``Orders`` over eight recurring ``part`` keys (the ``serve-batch`` shape);
every ``--abort-every``-th batch carries ``qty=13``, which the probe's
``ord.reserve`` refuses, so those instances abort through the unhandled-
failure path.  After the warm-up ``tracemalloc`` reads the traced heap at
every tenth of the run (quiescent, after a full collection):

* ``retained``  — KB per terminal instance over the whole measured run;
* ``window`` — the same for the same run at the daemon's default trace
  capacity, which the run does not fill: what the trace and span rings
  keep per instance is ``window`` minus ``retained``;
* ``first`` / ``last`` — ``retained`` over the first and the last tenth:
  equal when what is kept does not depend on how much was served before.

``--max-kb`` turns the probe into a gate (CI): exit 1 when ``retained``
of any probed architecture exceeds it.

    python scripts/history_probe.py
    python scripts/history_probe.py --architecture distributed \
        --instances 640 --max-kb 8
"""

import argparse
import asyncio
import gc
import inspect
import pathlib
import sys
import tracemalloc

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.programs import FunctionProgram  # noqa: E402
from repro.laws import load_laws  # noqa: E402
from repro.service import WorkflowService  # noqa: E402

ARCHITECTURES = ("centralized", "parallel", "distributed")
ORDERS_LAWS = REPO / "examples" / "order_fulfilment.laws"
BATCH = 32
#: The trace capacity ``repro serve`` runs with unless told otherwise.
DEFAULT_CAPACITY = inspect.signature(WorkflowService).parameters["trace_capacity"].default
PARTS = 8
REFUSED_QTY = 13


def reserve(inputs, ctx):
    if inputs["Check.ok"] == REFUSED_QTY:
        raise ValueError("out of stock")
    return {"rsv": ctx.instance_id}


async def finish_batches(service, first, count, abort_every):
    """Submit ``count`` batches one after another; each runs to its outcomes."""
    for batch in range(first, first + count):
        aborting = abort_every and batch % abort_every == abort_every - 1
        service.submit(
            workflow="Orders", instances=BATCH,
            inputs={"part": f"part-{batch % PARTS}",
                    "qty": REFUSED_QTY if aborting else 1},
        )
        async with asyncio.timeout(60):
            while service.running_count():
                await asyncio.sleep(0.002)
    # Quiescent: late halts, the purge broadcast and its timers have run.
    await service.runtime.join(timeout=30.0)


def traced_kb():
    gc.collect()
    return tracemalloc.get_traced_memory()[0] / 1024.0


async def probe(architecture, instances, warmup, trace_capacity, abort_every, top):
    # Traced from the start: an untraced ring entry evicted for a traced one
    # would read as growth.
    tracemalloc.start()
    service = WorkflowService(architecture=architecture, work_time_scale=0.001,
                              trace_capacity=trace_capacity)
    service.start()
    load_laws(ORDERS_LAWS.read_text()).install(service.system)
    service.system.register_program(
        "ord.check", FunctionProgram(lambda inputs, ctx: {"ok": inputs["WF.qty"]}))
    service.system.register_program("ord.reserve", FunctionProgram(reserve))
    try:
        batches = instances // BATCH
        done = warmup // BATCH
        await finish_batches(service, 0, done, abort_every)
        marks = [traced_kb()]
        before = tracemalloc.take_snapshot() if top else None
        for tenth in range(1, 11):
            upto = warmup // BATCH + batches * tenth // 10
            await finish_batches(service, done, upto - done, abort_every)
            done = upto
            marks.append(traced_kb())
        by_file = []
        if top:
            growth = tracemalloc.take_snapshot().compare_to(before, "filename")
            by_file = [(stat.traceback[0].filename, stat.size_diff / 1024.0)
                       for stat in growth[:top]]
    finally:
        tracemalloc.stop()
        await service.close()
    outcomes = service.system.outcomes.values()
    per_tenth = batches * BATCH / 10.0
    return {
        "architecture": architecture,
        "instances": batches * BATCH,
        "aborted": sum(1 for o in outcomes if not o.committed),
        "retained": (marks[-1] - marks[0]) / (batches * BATCH),
        "first": (marks[1] - marks[0]) / per_tenth,
        "last": (marks[-1] - marks[-2]) / per_tenth,
        "by_file": [(name, kb / (batches * BATCH)) for name, kb in by_file],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--architecture", action="append", choices=ARCHITECTURES,
                        help="probe only this architecture (repeatable)")
    parser.add_argument("--instances", type=int, default=1600,
                        help="terminal instances measured, after the warm-up")
    parser.add_argument("--warmup", type=int, default=640)
    parser.add_argument("--trace-capacity", type=int, default=2000)
    parser.add_argument("--abort-every", type=int, default=5,
                        help="every n-th batch aborts (0: all commit)")
    parser.add_argument("--top", type=int, default=0,
                        help="also list the n source files that retained most")
    parser.add_argument("--max-kb", type=float, default=None,
                        help="fail when retained KB per instance exceeds this")
    args = parser.parse_args(argv)
    if args.instances < 10 * BATCH:
        parser.error(f"--instances must be at least {10 * BATCH} (ten tenths of one batch)")

    print(f"{'architecture':<13} {'instances':>9} {'aborted':>8} "
          f"{'retained KB':>12} {'window KB':>10} {'first tenth':>12} {'last tenth':>11}")
    over = []
    for architecture in args.architecture or ARCHITECTURES:
        row = asyncio.run(probe(architecture, args.instances, args.warmup,
                                args.trace_capacity, args.abort_every, args.top))
        window = asyncio.run(probe(architecture, args.instances, args.warmup,
                                   DEFAULT_CAPACITY, args.abort_every, 0))
        print(f"{row['architecture']:<13} {row['instances']:>9} {row['aborted']:>8} "
              f"{row['retained']:>12.2f} {window['retained']:>10.2f} "
              f"{row['first']:>12.2f} {row['last']:>11.2f}")
        for name, kb in row["by_file"]:
            print(f"    {kb:8.2f}  {name.removeprefix(str(REPO) + '/')}")
        if args.max_kb is not None and row["retained"] > args.max_kb:
            over.append(architecture)
    if over:
        print(f"FAIL: retained KB per terminal instance above {args.max_kb} "
              f"on {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
