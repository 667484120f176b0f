"""The lint rules CI runs with ``ruff``, as a test that needs no linter.

Three checks over ``src/``, each the counterpart of a ruff rule in
``pyproject.toml``: no unused import (F401), every ``__all__`` name is
bound in its module (F822), and no line longer than the configured
``line-length`` (E501).  A line that carries ``# noqa`` is exempt, as it
is for ruff.  A fourth has no ruff rule: no function, method or class
defined in ``src/`` goes unnamed everywhere but at its definition.
"""

from __future__ import annotations

import ast
import re
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted((SRC / "repro").rglob("*.py"))
#: Where a definition in ``src/`` may be used from.
READERS = ("src", "tests", "bench", "scripts", "examples", "benchmarks")
LINE_LENGTH = tomllib.loads(
    (ROOT / "pyproject.toml").read_text())["tool"]["ruff"]["line-length"]


def _relative(path: Path) -> str:
    return str(path.relative_to(SRC))


def _noqa(lines: list[str], lineno: int) -> bool:
    return "# noqa" in lines[lineno - 1]


def _exported(tree: ast.Module) -> list[str]:
    """The string entries of a module-level ``__all__``, if any."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return [elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)]
    return []


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def _imports(tree: ast.Module):
    """``(lineno, bound name, alias)`` for every import but ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                yield node.lineno, bound, alias
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name, alias


def test_src_has_no_unused_imports():
    unused = []
    for path in MODULES:
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = _used_names(tree) | set(_exported(tree))
        for lineno, bound, alias in _imports(tree):
            if alias.name == "*" or alias.asname == alias.name:
                continue  # star import / explicit ``import x as x`` re-export
            if bound not in used and not _noqa(lines, lineno):
                unused.append(f"{_relative(path)}:{lineno}: {bound}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _bound_at_top(tree: ast.Module) -> set[str]:
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.partition(".")[0])
    return bound


def test_every_all_name_is_defined():
    missing = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = _bound_at_top(tree)
        missing.extend(f"{_relative(path)}: {name}"
                       for name in _exported(tree) if name not in bound)
    assert not missing, "__all__ names nothing binds:\n" + "\n".join(missing)


def test_src_lines_fit_the_configured_length():
    long_lines = [
        f"{_relative(path)}:{lineno}: {len(line)} > {LINE_LENGTH}"
        for path in MODULES
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > LINE_LENGTH and not re.search(r"# noqa", line)
    ]
    assert not long_lines, "\n".join(long_lines)


def test_every_src_definition_is_named_somewhere_else():
    """A name that occurs only where it is defined is dead code.  Any
    occurrence counts — a call, an attribute, a string a patch names it
    by, a comment — in the Python of every directory that may use it."""
    words: Counter = Counter()
    for directory in READERS:
        for path in (ROOT / directory).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    definitions: Counter = Counter()
    where: dict[str, str] = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[node.name] += 1
                where[node.name] = f"{_relative(path)}:{node.lineno}"
    dead = sorted(
        f"{where[name]}: {name}" for name, count in definitions.items()
        if words[name] == count
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert not dead, "defined but named nowhere else:\n" + "\n".join(dead)
