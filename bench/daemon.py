"""Spawn, observe and reap ``python -m repro serve`` subprocesses.

Every daemon the benchmark starts goes through :class:`Daemon`, which
picks a free port, points logs at ``/dev/null``, and is a context
manager: leaving the block (normally or by exception) terminates the
child and waits for it, so a failed run never leaves an orphan listening.
"""

from __future__ import annotations

import ctypes
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
HOST = "127.0.0.1"
BOOT_BUDGET_S = 30.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env() -> dict[str, str]:
    """The child's environment: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    return env


def die_with_parent() -> None:
    """``preexec_fn`` of every child the benchmark starts: the kernel kills
    the child when the benchmark process dies, whatever killed it
    (``PR_SET_PDEATHSIG``), so no exit path leaves an orphan listening."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def cpus() -> tuple[int, int]:
    """(client CPU, work CPU).  The measured program and the calibrator
    share the work CPU; the benchmark's own process takes the other, so
    neither's bursts show up in the other's latency (measured: commit p95
    spread 27 % on shared CPUs, 3 % apart).  With one allowed CPU there
    is nothing to separate."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


class Daemon:
    """One ``repro serve`` child on a free port.

    ``span_dump`` switches to the traced launcher (``traced_daemon.py``),
    which wraps the layer boundaries in spans and writes them to that
    path on SIGUSR1 (see :meth:`dump_spans`).
    """

    def __init__(self, architecture: str, work_time_scale: float, cpu: int,
                 state_dir: Path | None = None, span_dump: Path | None = None):
        self.port = free_port()
        self.cpu = cpu
        self.span_dump = span_dump
        serve_args = [
            "serve", "--host", HOST, "--port", str(self.port),
            "--architecture", architecture,
            "--work-time-scale", str(work_time_scale),
            "--log-out", "/dev/null",
        ]
        if state_dir is not None:
            serve_args += ["--state-dir", str(state_dir)]
        if span_dump is None:
            argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_daemon.py"),
                    str(span_dump), *serve_args]
        self.spawned_ns = time.monotonic_ns()
        self.process = subprocess.Popen(
            argv, cwd=REPO, env=child_env(), preexec_fn=die_with_parent,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        os.sched_setaffinity(self.process.pid, {cpu})

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        """User + system CPU seconds so far (``/proc/<pid>/stat``)."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        # The command name may hold spaces; fields are counted after it.
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def dump_spans(self) -> str:
        """Have the traced daemon write its spans so far; returns the path.
        Needed before a SIGKILL, which would take the spans with it."""
        path = self.span_dump
        path.unlink(missing_ok=True)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not path.exists():
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("traced daemon did not dump its spans")
            time.sleep(0.01)
        return str(path)

    def kill(self) -> None:
        """SIGKILL: the crash the durable log exists for."""
        self.process.kill()
        self.process.wait()

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; SIGKILL if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
