#!/usr/bin/env python
"""Do the fixed-seed CLI outputs of this checkout equal those of a git rev?

Extracts ``REV`` with ``git archive`` into a temporary directory, then runs
the same three commands in both trees:

* ``repro chaos --seeds 25 --strict --workers 4`` (150 faulted runs with
  the invariant suite),
* ``repro evaluate`` (the Table 4-6 evaluation),
* ``repro compare --instances 3`` (all three architectures),

each with ``PYTHONHASHSEED=0``, its own tree's ``src`` on ``PYTHONPATH``
and ``PYTHONDONTWRITEBYTECODE=1`` (no ``__pycache__`` lands in either
tree).  A unified diff is printed for every stdout that moved, and the
exit status is 1 if any did (2 if a command itself failed).  A change
that moves an output on purpose says old -> new where it is reviewed.

    python scripts/fixed_seed_diff.py HEAD~1
    python scripts/fixed_seed_diff.py origin/main > fixed-seed.diff
"""

import argparse
import difflib
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent

COMMANDS = (
    ("chaos", ["chaos", "--seeds", "25", "--strict", "--workers", "4"]),
    ("evaluate", ["evaluate"]),
    ("compare", ["compare", "--instances", "3"]),
)


def extract(rev: str, into: pathlib.Path) -> None:
    """``git archive REV`` unpacked into ``into``."""
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run(tree: pathlib.Path, args: list[str]) -> str:
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-m", "repro", *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(2)
    return done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against")
    args = parser.parse_args(argv)
    moved = []
    with tempfile.TemporaryDirectory(prefix="fixed-seed-") as scratch:
        base = pathlib.Path(scratch)
        extract(args.rev, base)
        for name, command in COMMANDS:
            before = run(base, command)
            after = run(REPO, command)
            if before == after:
                print(f"{name}: identical", file=sys.stderr)
                continue
            moved.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                before.splitlines(keepends=True), after.splitlines(keepends=True),
                f"{args.rev}: repro {' '.join(command)}",
                f"working tree: repro {' '.join(command)}"))
    if moved:
        print(f"moved: {', '.join(moved)}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
