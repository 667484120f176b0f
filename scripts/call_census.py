#!/usr/bin/env python
"""Which ``src/`` functions the tier-1 suite never calls.

Runs the suite in this process with a ``sys.setprofile`` hook (and
``threading.setprofile`` for the threads tests start), given to pytest as
a plugin, then prints every function defined under ``src/repro`` whose
code never ran: ``file:line``, qualified name and length in lines.  These
are the candidates a deletion change looks at first.

Some tests set and clear the profile hook themselves
(``tests/conftest.py::sampling_calls_to`` ends with
``sys.setprofile(None)``), so the plugin installs the hook again at each
test's setup, call and teardown; installed only once, the census misses
everything after the first such test.

What runs only in a child process (``repro serve`` and the CLI
subcommands the tests spawn) is not seen, so some of the functions listed
do run.  The hook slows the suite a few times over, so a test with a
wall-clock budget may fail here; the census is a report, and exits 0
whatever the suite does.

    python scripts/call_census.py                  # the whole tier-1 suite
    python scripts/call_census.py tests/service    # arguments go to pytest
"""

import ast
import os
import pathlib
import sys
import threading

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

import pytest  # noqa: E402


class Census:
    """A pytest plugin recording the code object of every Python call."""

    def __init__(self):
        #: id(code) -> code; the code objects stay alive, so ids stay unique
        self.codes = {}

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            self.codes[id(code)] = code

    def install(self):
        sys.setprofile(self._hook)
        threading.setprofile(self._hook)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        self.install()
        yield

    pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup

    def called(self):
        """``(real path, first line)`` of every code object that ran."""
        return {(os.path.realpath(code.co_filename), code.co_firstlineno)
                for code in self.codes.values()}


def functions(root):
    """``(path, first line, qualified name, length)`` of every function
    under ``root``; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((path, first, name, child.end_lineno - first + 1))
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "")
    return found


def main(argv):
    census = Census()
    os.chdir(REPO)
    census.install()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests"])],
                             plugins=[census])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called = census.called()
    every = functions(SRC / "repro")
    never = [(path, line, name, length) for path, line, name, length in every
             if (os.path.realpath(path), line) not in called]
    print(f"\ncall census: {len(never)} of {len(every)} functions under src/ "
          f"never called (pytest exit status {int(status)})")
    for path, line, name, length in never:
        print(f"  {path.relative_to(SRC)}:{line}  {name}  ({length} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
