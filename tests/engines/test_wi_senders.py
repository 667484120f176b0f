"""Every verb a distributed agent handles has a sender under ``src/``.

A payload handler in ``WorkflowAgentNode._wi`` that no code addresses is
dead protocol: the verb is read off the AST of every module, at each call
of ``send`` or ``_invoke`` (the verb is their second argument).  A verb
passed on through a parameter (``_start_compensation(verb, ...)`` ->
``_walk_compensation(verb, ...)`` -> ``send(target, verb, ...)``) is
followed back to the calls that name it.
"""

import ast
import importlib
from pathlib import Path

from repro.core.interfaces import WI
from tests.conftest import make_system

SRC = Path(__file__).resolve().parents[2] / "src"


def parsed_modules():
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = ".".join(path.relative_to(SRC).with_suffix("").parts)
        yield importlib.import_module(name.removesuffix(".__init__")), ast.parse(
            path.read_text())


def enclosing_functions(tree):
    """node -> the function definition it sits in."""
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn
    return owner


def sent_verbs():
    """The verbs some ``send``/``_invoke`` call under ``src/`` addresses."""
    calls = []  # (module, call, enclosing function) of every method call
    for module, tree in parsed_modules():
        owner = enclosing_functions(tree)
        calls += [(module, node, owner.get(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]

    def resolve(module, expr, fn, seen):
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return {expr.value}
        if (isinstance(expr, ast.Attribute) and expr.attr == "value"
                and isinstance(expr.value, ast.Attribute)
                and isinstance(expr.value.value, ast.Name) and expr.value.value.id == "WI"):
            return {WI[expr.value.attr].value}
        if not isinstance(expr, ast.Name):
            return set()
        params = [] if fn is None else [a.arg for a in fn.args.args]
        if expr.id not in params:
            value = getattr(module, expr.id, None)
            return {value} if isinstance(value, str) else set()
        # A parameter: what the calls of the enclosing method pass for it.
        if fn.name in seen:
            return set()
        index = params.index(expr.id) - 1  # after ``self``
        return set().union(*(
            resolve(m, call.args[index], f, seen | {fn.name})
            for m, call, f in calls
            if call.func.attr == fn.name and len(call.args) > index
        ))

    return set().union(*(
        resolve(module, call.args[1], fn, frozenset())
        for module, call, fn in calls
        if call.func.attr in ("send", "_invoke") and len(call.args) > 1
    ))


def test_every_handled_verb_is_sent_somewhere():
    system = make_system("distributed")
    handled = set(system.agents[0]._wi)
    sent = sent_verbs()
    assert WI.COMPENSATE_SET.value in sent  # followed through two parameters
    assert handled - sent == set()
