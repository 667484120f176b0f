"""How fast is this CPU right now?  A probe that runs beside the work.

On a shared box the same Python code takes 10-60 % more CPU time from
one minute to the next (measured: identical simulator passes 2.5 s to
5.0 s), because neighbours compete for the core's execution resources.
The slowdown shows in CPU time, not only in wall time, so neither a
minimum over repeats nor CPU-time accounting removes it.

This process pins itself to the CPU the measured program runs on and,
every ``PERIOD_S``, times a fixed pure-Python loop in *CPU time* (so that
sharing the core with the program does not count).  The ratio of that
time to ``REFERENCE_S`` — the loop's time on the quiet reference box — is
the CPU's current slowdown.  The CPU seconds a measured interval used
are divided by the mean slowdown over that interval (:class:`Timed`);
time spent waiting on timers is left as measured.  The loop imports
nothing from the program, so a change to the program cannot move it.

    python calibrator.py <cpu>      # samples as one JSON line on SIGTERM
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from heapq import heappop, heappush

from daemon import die_with_parent

PERIOD_S = 0.025
#: CPU seconds of one ``spin()`` on the reference box (2-core Xeon
#: 2.1 GHz guest) when nothing else competes for the core.
REFERENCE_S = 0.00100


class _Cell:
    __slots__ = ("count", "key")

    def __init__(self, count: int, key: str):
        self.count = count
        self.key = key

    def bump(self, by: int) -> int:
        self.count += by
        return self.count


def spin(rounds: int = 1000) -> int:
    """The fixed loop: the mix an interpreter-bound program is made of —
    string keys, dict and heap churn, small objects, method calls."""
    heap: list = []
    table: dict = {}
    cells: list = []
    acc = 0
    for i in range(rounds):
        key = "k%d" % (i & 255)
        cell = _Cell(i, key)
        cells.append(cell)
        table[key] = (i, acc, cell)
        heappush(heap, ((i * 7919) % 1013, i, key))
        if len(heap) > 64:
            acc += heappop(heap)[0]
        acc += cell.bump(len(table[key]))
        if len(cells) > 512:
            cells = cells[256:]
    return acc


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    samples: list[tuple[int, int]] = []
    stop = False

    def on_term(*__) -> None:
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    while not stop:
        started = time.process_time_ns()
        spin()
        samples.append((time.monotonic_ns(), time.process_time_ns() - started))
        time.sleep(PERIOD_S)
    json.dump(samples, sys.stdout)
    return 0


@dataclass
class Timed:
    """One measured interval of the program: when (monotonic clock), how
    long, and how much CPU the measured process used in it."""

    start_ns: int
    end_ns: int
    wall_s: float
    cpu_s: float


class Calibrator:
    """The probe as a child process; a context manager, so it is stopped
    and waited for on every exit path."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(cpu)], stdout=subprocess.PIPE,
            preexec_fn=die_with_parent)
        self._samples: list[tuple[int, int]] | None = None

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self._samples is None:
            self._process.send_signal(signal.SIGTERM)
            out, __ = self._process.communicate()
            self._samples = [tuple(s) for s in json.loads(out or b"[]")]

    def slowdown(self, start_ns: int, end_ns: int) -> float:
        """Mean slowdown of the CPU over ``[start_ns, end_ns]`` (monotonic
        clock).  Call after :meth:`stop`."""
        inside = [cpu_ns for at, cpu_ns in self._samples
                  if start_ns <= at <= end_ns]
        if not inside:  # an interval shorter than the period: nearest sample
            middle = (start_ns + end_ns) // 2
            inside = [min(self._samples, key=lambda s: abs(s[0] - middle))[1]]
        return sum(inside) / len(inside) / 1e9 / REFERENCE_S

    def cpu_s(self, timed: Timed) -> float:
        """CPU seconds of the interval at reference speed."""
        return timed.cpu_s / self.slowdown(timed.start_ns, timed.end_ns)

    def wall_s(self, timed: Timed) -> float:
        """Wall seconds of the interval with its CPU part at reference
        speed; the part spent waiting on timers is kept as measured."""
        return timed.wall_s - timed.cpu_s + self.cpu_s(timed)


if __name__ == "__main__":
    raise SystemExit(main())
