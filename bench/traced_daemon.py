"""Launcher of the traced daemon: ``repro serve`` with spans around its
layer boundaries.

    python traced_daemon.py <span-dump-file> serve [serve arguments ...]

The spans stay in memory; they are written to the dump file whenever the
daemon receives SIGUSR1 (the benchmark asks once, before it stops or kills
the daemon).  The write goes to a temporary name first, so a reader never
sees half a file.
"""

from __future__ import annotations

import os
import signal
import sys

from layers import install_engine_spans, install_service_spans
from spans import Recorder


def main() -> int:
    dump_path, serve_argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install_engine_spans(recorder)
    install_service_spans(recorder)

    def dump(*__) -> None:
        partial = dump_path + ".partial"
        recorder.dump(partial)
        os.replace(partial, dump_path)

    signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as repro_main

    return repro_main(serve_argv)


if __name__ == "__main__":
    raise SystemExit(main())
