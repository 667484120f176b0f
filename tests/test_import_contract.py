"""Architectural import-layering contract.

The package stack is layered bottom-up: no package may import from a
layer above it (``engines -> core -> rules/storage -> sim -> runtime``,
with ``errors`` at the bottom and the CLI at the top).  The test walks
every module's AST, so violations are caught even in rarely-executed
code paths.  Imports guarded by ``if TYPE_CHECKING:`` are exempt — they
break cycles for annotations only and vanish at runtime.

Two extra contracts pin the runtime boundary: the one engine module
that names the simulator is ``engines/base.py``, which builds the
default ``SimRuntime``, and the runtime layer itself never imports
``repro.sim``.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: package -> layer rank; a module may only import repro packages of a
#: strictly lower rank (or its own package).
LAYERS = {
    "errors": 0,
    "runtime": 1,
    "sim": 2,
    "rules": 2,
    "model": 3,
    "obs": 3,
    "storage": 4,
    "core": 5,
    "engines": 6,
    "workloads": 7,
    "laws": 7,
    "analysis": 8,
    "service": 9,
    "cli": 10,
    "__main__": 11,
}


def top_package(module_path: Path) -> str:
    """``repro/<pkg>/...`` or ``repro/<pkg>.py`` -> ``<pkg>``."""
    relative = module_path.relative_to(SRC / "repro")
    return relative.parts[0].removesuffix(".py")


def runtime_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(lineno, dotted-module) pairs for every import that exists at
    runtime — ``if TYPE_CHECKING:`` bodies are pruned before the walk."""

    def is_type_checking(test: ast.expr) -> bool:
        return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )

    found: list[tuple[int, str]] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and is_type_checking(child.test):
                for orelse in child.orelse:
                    walk(orelse)
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    found.append((child.lineno, alias.name))
            elif isinstance(child, ast.ImportFrom):
                if child.level == 0 and child.module:
                    found.append((child.lineno, child.module))
            else:
                walk(child)

    walk(tree)
    return found


def collect_violations() -> list[str]:
    violations = []
    for module_path in sorted((SRC / "repro").rglob("*.py")):
        package = top_package(module_path)
        if package == "__init__":  # repro/__init__.py re-exports the API
            continue
        rank = LAYERS[package]
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        for lineno, imported in runtime_imports(tree):
            parts = imported.split(".")
            if parts[0] != "repro" or len(parts) < 2:
                continue
            target = parts[1]
            if target == package:
                continue
            target_rank = LAYERS.get(target)
            if target_rank is None:
                violations.append(
                    f"{module_path.relative_to(SRC)}:{lineno} imports unknown "
                    f"package repro.{target} — add it to LAYERS"
                )
            elif target_rank >= rank:
                violations.append(
                    f"{module_path.relative_to(SRC)}:{lineno} "
                    f"({package}, layer {rank}) imports repro.{target} "
                    f"(layer {target_rank}): upward or sideways import"
                )
    return violations


def test_every_package_is_ranked():
    packages = {
        top_package(p)
        for p in (SRC / "repro").rglob("*.py")
        if top_package(p) != "__init__"
    }
    assert packages <= set(LAYERS), f"unranked packages: {packages - set(LAYERS)}"


def test_no_upward_imports():
    violations = collect_violations()
    assert not violations, "\n".join(violations)


def test_only_the_default_runtime_comes_from_sim():
    """``ControlSystem`` runs on a ``SimRuntime`` unless it is given a
    runtime, so ``engines/base.py`` imports it — and nothing else from
    ``repro.sim``.  No other module under ``repro/engines/`` imports
    ``repro.sim`` (``TYPE_CHECKING``-only imports included): engines run
    on whatever clock the runtime carries."""
    engines = SRC / "repro" / "engines"
    found = []
    for module_path in sorted(engines.rglob("*.py")):
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(module_path, alias.name, None) for alias in node.names
                          if alias.name.split(".")[:2] == ["repro", "sim"]]
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[:2] == ["repro", "sim"]):
                found.append((module_path, node.module,
                              sorted(alias.name for alias in node.names)))
    assert [(path.relative_to(engines).as_posix(), module, names)
            for path, module, names in found] == [
        ("base.py", "repro.sim.kernel", ["SimRuntime"])]


def test_sim_reexport_shims_stay_deleted():
    """The ``repro.sim.{network,node,metrics,rng,tracing,faults}``
    re-export shims are gone: runtime-neutral code is imported from
    :mod:`repro.runtime`, and nothing may bring the old paths back."""
    sim = SRC / "repro" / "sim"
    for shim in ("network", "node", "metrics", "rng", "tracing", "faults"):
        assert not (sim / f"{shim}.py").exists(), f"repro.sim.{shim} is back"
        assert not (sim / shim).exists(), f"repro.sim.{shim} is back"


def test_runtime_plugin_layer_stays_deleted():
    """Each runtime seam has one implementation, so there is no
    ``typing.Protocol`` for it and no registry that builds a backend by
    name: ``runtime/protocols.py`` and ``runtime/factory.py`` stay gone
    and nothing under ``runtime/`` subclasses ``Protocol``."""
    runtime = SRC / "repro" / "runtime"
    for name in ("protocols", "factory"):
        assert not (runtime / f"{name}.py").exists(), f"repro.runtime.{name} is back"
    protocols = [
        f"{module_path.name}:{node.name}"
        for module_path in sorted(runtime.rglob("*.py"))
        for node in ast.walk(ast.parse(module_path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith("Protocol") for base in node.bases)
    ]
    assert not protocols, protocols


def test_relative_order_scan_stays_a_test_oracle():
    """``RelativeOrderAuthority`` answers from its conflict-key index.  The
    scan implementation lives under ``tests/`` only (nothing in ``src/``
    defines it or imports from ``tests``), and so do the questions only
    tests ask — ``leaders_of``, ``is_leading`` and ``established_pairs``
    (``tests/core/reference_ro.py``): nothing in ``src/`` defines or calls
    them."""
    introspection = ("leaders_of", "is_leading", "established_pairs")
    violations = []
    for module_path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        where = module_path.relative_to(SRC)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "ScanRelativeOrderAuthority":
                violations.append(f"{where}:{node.lineno} defines the scan oracle")
            elif isinstance(node, ast.FunctionDef) and node.name in introspection:
                violations.append(f"{where}:{node.lineno} defines {node.name}()")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in introspection
            ):
                violations.append(f"{where}:{node.lineno} calls {node.func.attr}()")
        for lineno, imported in runtime_imports(tree):
            if imported.split(".")[0] == "tests":
                violations.append(f"{where}:{lineno} imports {imported}")
    assert not violations, "\n".join(violations)


def test_whole_snapshot_log_stays_a_test_oracle():
    """The engine log appends what changed.  The one place in ``src/`` that
    snapshots an instance for the log is ``InstanceChains.persist``; the
    snapshot-per-persist log lives under ``tests/`` only.  Each log
    checksums eagerly with its own encoder: ``WriteAheadLog.append`` calls
    ``memory_checksum`` (marshal, in memory only), ``ServiceLog`` calls
    ``record_checksum`` (the pinned JSON of ``service.wal``), and nothing
    under ``service/`` touches marshal, so the memory form never reaches
    disk.  ``ServiceLog`` keeps no records or lsns of its own: its
    ``append`` is ``WriteAheadLog.append`` plus a line.  The naive rule
    engine is a test oracle too."""
    violations = []
    for module_path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        where = module_path.relative_to(SRC)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in (
                    "SnapshotLog", "NaiveRuleEngine"):
                violations.append(f"{where}:{node.lineno} defines the {node.name} oracle")
    storage = SRC / "repro" / "storage"
    for name in ("wfdb.py", "agdb.py"):
        for node in ast.walk(ast.parse((storage / name).read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "snapshot"):
                violations.append(f"storage/{name}:{node.lineno} snapshots an instance")

    def calls(scope, name):
        return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name
                   for n in ast.walk(scope))

    def member(path, class_name, name=None):
        [cls] = [n for n in ast.parse(path.read_text()).body
                 if isinstance(n, ast.ClassDef) and n.name == class_name]
        if name is None:
            return cls
        [method] = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == name]
        return method

    assert calls(member(storage / "wal.py", "WriteAheadLog", "append"), "memory_checksum"), \
        "WriteAheadLog.append no longer checksums at append"
    service = SRC / "repro" / "service"
    service_log = member(service / "durability.py", "ServiceLog")
    assert calls(service_log, "record_checksum"), \
        "ServiceLog no longer checks records with the service.wal convention"
    # One record layer: the file log's records are its WriteAheadLog's.
    assert any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "append" and getattr(n.func.value, "attr", None) == "wal"
               for n in ast.walk(member(service / "durability.py", "ServiceLog", "append"))), \
        "ServiceLog.append no longer appends through WriteAheadLog.append"
    for node in ast.walk(service_log):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and ("lsn" in node.attr or node.attr == "_records")):
            violations.append(f"service/durability.py:{node.lineno} ServiceLog keeps "
                              f"{node.attr} of its own")
    for module_path in sorted(service.rglob("*.py")):
        if "marshal" in module_path.read_text():
            violations.append(f"{module_path.relative_to(SRC)} mentions marshal")
    assert not violations, "\n".join(violations)


def test_previous_observability_plane_stays_a_test_oracle():
    """A span has one construction path (``Tracer.add``; a message or mark
    row becomes a ``Span`` in ``_message_span`` / ``_mark_span`` when read,
    born closed).  The tracer, registry and flight recorder that did
    otherwise live under ``tests/`` only (the loop in
    ``test_relative_order_scan_stays_a_test_oracle`` keeps ``src/`` from
    importing them)."""
    obs = SRC / "repro" / "obs"
    builders = {}
    spans = ast.parse((obs / "spans.py").read_text())
    for scope in ast.walk(spans):
        if not isinstance(scope, ast.FunctionDef):
            continue
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Span":
                builders[scope.name] = node
    assert sorted(builders) == ["_mark_span", "_message_span", "add"]
    for name in ("_mark_span", "_message_span"):
        # Span(span_id, name, category, node, start, parent_id, attrs,
        #      link_id, end): a row reads back with ``end`` == ``start``, so
        # ``Tracer.add`` stays the one path for an open span.
        args = builders[name].args
        assert len(args) == 9 and ast.dump(args[8]) == ast.dump(args[4]), name


def test_the_profiler_samples_and_the_code_it_measures_has_no_hook():
    """The profiler is a stack sampler: no ``profile`` attribute, slot or
    parameter on the clocks, the transport, the rule engine or the engine
    log, no ``profile=`` argument and no ``@profiled`` decorator anywhere
    in ``src/``, and ``obs/profile.py`` arms ``ITIMER_PROF``."""
    hooked = ("runtime/eventqueue.py", "sim/kernel.py", "runtime/realtime.py",
              "runtime/transport.py", "rules/engine.py", "storage/wal.py")
    violations = []
    for module_path in sorted((SRC / "repro").rglob("*.py")):
        where = module_path.relative_to(SRC / "repro").as_posix()
        for node in ast.walk(ast.parse(module_path.read_text())):
            line = f"{where}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if getattr(target, "id", getattr(target, "attr", None)) == "profiled":
                        violations.append(f"{line} @profiled")
            elif isinstance(node, ast.keyword) and node.arg == "profile":
                violations.append(f"{line} profile= argument")
            if where not in hooked:
                continue
            if isinstance(node, ast.Attribute) and node.attr == "profile":
                violations.append(f"{line} .profile")
            elif isinstance(node, ast.Name) and node.id == "profile":
                violations.append(f"{line} profile name")
            elif isinstance(node, ast.arg) and node.arg == "profile":
                violations.append(f"{line} profile parameter")
            elif isinstance(node, ast.Constant) and node.value == "profile":
                violations.append(f"{line} 'profile' slot")
    assert not violations, "\n".join(violations)
    profiler = (SRC / "repro" / "obs" / "profile.py").read_text()
    assert "ITIMER_PROF" in profiler and "def push" not in profiler


def test_engines_leave_the_program_stream_to_the_context():
    """A step's ``prog:`` stream is resolved when its program first reads
    ``ExecutionContext.rng``: no engine module builds an
    ``ExecutionContext`` with ``rng=`` or draws up a ``prog:`` stream
    itself."""
    violations = []
    for module_path in sorted((SRC / "repro" / "engines").rglob("*.py")):
        where = module_path.relative_to(SRC)
        for node in ast.walk(ast.parse(module_path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", None) == "ExecutionContext":
                if any(k.arg == "rng" for k in node.keywords):
                    violations.append(f"{where}:{node.lineno} passes rng=")
            elif (isinstance(node.func, ast.Attribute) and node.func.attr == "stream"
                  and node.args and isinstance(node.args[0], ast.JoinedStr)
                  and str(getattr(node.args[0].values[0], "value", "")).startswith("prog:")):
                violations.append(f"{where}:{node.lineno} opens a prog: stream")
    assert not violations, "\n".join(violations)


def test_purge_forgets_through_one_retire_routine():
    """The agent that broadcasts a purge and the agents that receive it
    forget the same things: the broadcaster addresses ``PurgeNotice`` to
    every agent, itself included, through the one router, the
    ``PurgeNotice`` handler goes through ``_retire``, neither names a
    per-instance map itself, and nothing else in distributed control
    purges the AGDB."""
    from repro.engines.distributed import VERB_PURGE, DistributedControlSystem

    [agent] = DistributedControlSystem(num_agents=1).agents
    handler = agent._wi[VERB_PURGE].__name__
    distributed = SRC / "repro" / "engines" / "distributed"
    failure = ast.parse((distributed / "failure.py").read_text())
    methods = {
        node.name: node for node in ast.walk(failure) if isinstance(node, ast.FunctionDef)
    }
    routed = [n for n in ast.walk(methods["_broadcast_purge"]) if isinstance(n, ast.Call)
              and getattr(n.func, "attr", None) == "_invoke"]
    assert [ast.unparse(call.args[1]) for call in routed] == ["VERB_PURGE"]
    for name in (handler, "_broadcast_purge"):
        attributes = {n.attr for n in ast.walk(methods[name]) if isinstance(n, ast.Attribute)}
        if name == handler:
            assert "_retire" in attributes, f"{name} does not retire through _retire"
        maps = attributes & {"runtimes", "trackers", "agdb", "authorities", "rng",
                             "_probe_reports", "_seen_status_probes"}
        assert not maps, f"{name} forgets {sorted(maps)} on its own"
    purgers = []
    for module_path in sorted(distributed.glob("*.py")):
        for scope in ast.walk(ast.parse(module_path.read_text())):
            if isinstance(scope, ast.FunctionDef) and any(
                isinstance(n, ast.Attribute) and n.attr == "purge_instances"
                for n in ast.walk(scope)
            ):
                purgers.append(f"{module_path.name}:{scope.name}")
    assert purgers == ["failure.py:_retire"]


def test_a_distributed_agent_addresses_a_wi_one_way():
    """A WI means the same whether another agent or the agent itself
    addresses it: one payload handler per verb in ``WorkflowAgentNode._wi``,
    reached by a message through the one receive method and by the agent
    itself through the one router, ``_invoke``.  So no other function in
    ``engines/distributed/`` writes out the call-or-send itself — an ``if``
    comparing with ``self.name`` with a local call on one branch and
    ``self.send`` on the other — and every ``Node.handlers`` entry is the
    receive method except the three verbs that answer their sender."""

    def compares_with_self_name(test: ast.expr) -> bool:
        return any(isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Attribute) and side.attr == "name"
            and getattr(side.value, "id", None) == "self"
            for side in (node.left, *node.comparators)) for node in ast.walk(test))

    def self_calls(branch: list[ast.stmt]) -> set[str]:
        return {node.func.attr for stmt in branch for node in ast.walk(stmt)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "self"}

    violations = []
    for module_path in sorted((SRC / "repro" / "engines" / "distributed").glob("*.py")):
        for scope in ast.walk(ast.parse(module_path.read_text())):
            if not isinstance(scope, ast.FunctionDef) or scope.name == "_invoke":
                continue
            for node in ast.walk(scope):
                if not (isinstance(node, ast.If) and compares_with_self_name(node.test)):
                    continue
                body, orelse = self_calls(node.body), self_calls(node.orelse)
                if ("send" in body and orelse - {"send"}) or (
                        "send" in orelse and body - {"send"}):
                    violations.append(f"{module_path.name}:{node.lineno} in {scope.name}")
    assert not violations, "call-or-send written out:\n" + "\n".join(violations)

    from repro.engines.distributed import DistributedControlSystem, WorkflowAgentNode

    for agent in DistributedControlSystem(num_agents=2).agents:
        answering = {verb for verb, handler in agent.handlers.items()
                     if getattr(handler, "__func__", None) is not WorkflowAgentNode._receive}
        assert answering == {"StepStatus", "StateInformation", "StateInformationReply"}
        assert set(agent._wi) == set(agent.handlers) - answering


def test_daemon_hot_paths_spawn_no_task_per_step_or_event():
    """A step is a loop timer and a streamed batch of events one future:
    the executor and the stream pump create no Task, race no
    ``asyncio.wait`` and sleep in no coroutine, and no ``asyncio.Queue``
    feed is back beside :class:`repro.service.core.EventFeed`."""
    executors = ast.parse((SRC / "repro" / "runtime" / "executor.py").read_text())
    http = ast.parse((SRC / "repro" / "service" / "http.py").read_text())
    [executor] = [n for n in ast.walk(executors)
                  if isinstance(n, ast.ClassDef) and n.name == "TaskExecutor"]
    [pump] = [n for n in ast.walk(http)
              if isinstance(n, ast.AsyncFunctionDef) and n.name == "_stream_events"]
    assert not [n for n in ast.walk(executor) if isinstance(n, ast.AsyncFunctionDef)
                and n.name != "join"], "a coroutine-per-step path is back"
    for scope in (executor, pump):
        spawned = sorted(
            f"{scope.name}:{n.lineno} {n.attr}" for n in ast.walk(scope)
            if isinstance(n, ast.Attribute)
            and (n.attr in ("ensure_future", "create_task", "sleep", "gather")
                 or (n.attr == "wait" and isinstance(n.value, ast.Name)
                     and n.value.id == "asyncio"))
        )
        assert not spawned, spawned
    queues = []
    for module_path in sorted((SRC / "repro" / "service").glob("*.py")):
        queues += [
            f"{module_path.name}:{n.lineno}"
            for n in ast.walk(ast.parse(module_path.read_text()))
            if isinstance(n, ast.Attribute) and n.attr == "Queue"
        ]
    assert not queues, f"asyncio.Queue feeds are back: {queues}"


def test_both_clocks_fire_one_event_queue():
    """The simulator and the wall clock are two clocks over the one
    :class:`repro.runtime.eventqueue.EventQueue`: ``EventHandle`` is the
    only handle class under ``runtime/`` and ``sim/``; neither
    ``RealtimeClock`` nor ``TaskExecutor`` arms a ``call_later`` timer
    (the clock arms one callback for the head of its queue, and a step
    waits as a clock entry); the clock keeps no turn ``deque`` beside the
    heap; and neither the executor nor the runtime keeps an idle event or
    a join loop of its own."""
    handles = []
    for package in ("runtime", "sim"):
        for module_path in sorted((SRC / "repro" / package).rglob("*.py")):
            handles += [
                f"{module_path.relative_to(SRC / 'repro')}:{node.name}"
                for node in ast.walk(ast.parse(module_path.read_text()))
                if isinstance(node, ast.ClassDef) and node.name.endswith("Handle")
            ]
    assert handles == ["runtime/eventqueue.py:EventHandle"]
    classes = {n.name: n
               for path in ("runtime/realtime.py", "sim/kernel.py",
                            "runtime/executor.py")
               for n in ast.parse((SRC / "repro" / path).read_text()).body
               if isinstance(n, ast.ClassDef)}
    for name in ("Simulator", "RealtimeClock"):
        assert [ast.unparse(b) for b in classes[name].bases] == ["EventQueue"], name

    def names(scope: ast.AST) -> set[str]:
        return ({n.attr for n in ast.walk(scope) if isinstance(n, ast.Attribute)}
                | {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)})

    for name in ("RealtimeClock", "TaskExecutor"):
        assert "call_later" not in names(classes[name]), f"{name} arms call_later"
    assert "deque" not in names(classes["RealtimeClock"]), "a turn deque is back"
    for name in ("TaskExecutor", "RealtimeRuntime"):
        assert not names(classes[name]) & {"Event", "_idle"}, f"{name} keeps an idle event"
        assert not [n for n in ast.walk(classes[name]) if isinstance(n, ast.While)], (
            f"{name} polls in a loop")


def test_one_executor_and_one_runtime_serve_both_clocks():
    """``TaskExecutor`` is the executor of both runtimes and
    ``ClockRuntime`` the runtime: under ``runtime/`` and ``sim/`` no other
    class defines ``submit`` or ``install_faults``, both backends are a
    ``ClockRuntime`` over their clock and ``sim/runtime.py`` stays folded
    into the kernel module."""
    assert not (SRC / "repro" / "sim" / "runtime.py").exists()
    defined: dict[str, list[str]] = {"submit": [], "install_faults": []}
    classes = {}
    for package in ("runtime", "sim"):
        for module_path in sorted((SRC / "repro" / package).rglob("*.py")):
            for node in ast.parse(module_path.read_text()).body:
                if not isinstance(node, ast.ClassDef):
                    continue
                classes[node.name] = node
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in defined:
                        defined[item.name].append(node.name)
    assert defined == {"submit": ["TaskExecutor"],
                       "install_faults": ["ClockRuntime"]}
    for name in ("SimRuntime", "RealtimeRuntime"):
        assert [ast.unparse(b) for b in classes[name].bases] == ["ClockRuntime"], name


def test_the_step_executor_retries_nothing():
    """A raising step callback is a defect and an injected ``execfail`` is
    a failed step, so the executor has nothing to retry:
    ``runtime/executor.py`` imports neither ``RetryPolicy`` nor
    ``SimRandom``, ``TaskExecutor`` has no requeue, retry hooks or retry
    counters, and ``repro.errors`` has no ``InjectedFault``."""
    tree = ast.parse((SRC / "repro" / "runtime" / "executor.py").read_text())
    imported = {alias.name.rpartition(".")[2]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not imported & {"RetryPolicy", "SimRandom", "retry", "rng"}, imported
    [executor] = [node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "TaskExecutor"]
    members = {node.name for node in ast.walk(executor)
               if isinstance(node, ast.FunctionDef)}
    members |= {node.attr for node in ast.walk(executor)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    retry_machinery = {"_requeue", "on_retry", "on_give_up", "retries", "failures"}
    assert not members & retry_machinery, sorted(members & retry_machinery)
    errors = ast.parse((SRC / "repro" / "errors.py").read_text())
    assert "InjectedFault" not in {node.name for node in errors.body
                                   if isinstance(node, ast.ClassDef)}


def test_runtime_layer_has_no_static_backend_imports():
    """repro.runtime never imports repro.sim: the shared pieces (queue,
    transport, executor, ``ClockRuntime``) sit below the simulator that
    builds on them, and ``SimRuntime`` lives with its clock."""
    runtime_pkg = SRC / "repro" / "runtime"
    violations = []
    for module_path in sorted(runtime_pkg.rglob("*.py")):
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        for lineno, imported in runtime_imports(tree):
            if imported == "repro.sim" or imported.startswith("repro.sim."):
                violations.append(
                    f"{module_path.relative_to(SRC)}:{lineno} imports "
                    f"{imported}: the runtime layer must not depend on a "
                    f"backend"
                )
    assert not violations, "\n".join(violations)


def test_engines_subpackage_layering():
    """Within repro.engines: the shared runtime layer imports no engine
    module, and the architecture packages never import each other —
    except parallel, which is documented to extend centralized."""
    engines = SRC / "repro" / "engines"
    subpkgs = ("centralized", "parallel", "distributed", "runtime")
    allowed_peer = {("parallel", "centralized")}
    violations = []
    for module_path in sorted(engines.rglob("*.py")):
        relative = module_path.relative_to(engines)
        owner = relative.parts[0].removesuffix(".py")
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        for lineno, imported in runtime_imports(tree):
            parts = imported.split(".")
            if parts[:2] != ["repro", "engines"] or len(parts) < 3:
                continue
            target = parts[2]
            if target not in subpkgs or target == owner:
                continue
            if owner == "runtime":
                violations.append(
                    f"runtime/{relative.name}:{lineno} imports "
                    f"repro.engines.{target}: the shared layer must stay "
                    f"architecture-free"
                )
            elif owner in subpkgs and (owner, target) not in allowed_peer:
                if target == "runtime":
                    continue  # everyone may use the shared layer
                violations.append(
                    f"{relative}:{lineno} ({owner}) imports "
                    f"repro.engines.{target}: architectures must not couple"
                )
    assert not violations, "\n".join(violations)


def test_engines_emit_events_and_hold_no_spans():
    """An engine node describes each protocol event once, with
    ``emit``; spans, step metrics and flight dumps are views of it in
    ``engines/base.py``.  No other engine module names ``Span``,
    ``NULL_SPAN``, the ``tracer``, ``exec_spans`` or an ``obs_step_*``
    hook, no ``InflightStep`` carries a span, and ``ControlSystem`` has no
    ``obs_step_*`` method left."""
    forbidden = {"Span", "NULL_SPAN", "tracer", "exec_spans"}
    engines = SRC / "repro" / "engines"
    violations = []
    for module_path in sorted(engines.rglob("*.py")):
        if module_path == engines / "base.py":
            continue
        for node in ast.walk(ast.parse(module_path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.alias):
                names.append(node.asname or node.name.rpartition(".")[2])
            for name in filter(None, names):
                if name in forbidden or name.startswith("obs_step_"):
                    where = module_path.relative_to(SRC)
                    violations.append(f"{where}:{getattr(node, 'lineno', '?')}: {name}")
    assert not violations, "\n".join(violations)
    inflight = ast.parse((engines / "runtime" / "inflight.py").read_text())
    [record] = [node for node in inflight.body
                if isinstance(node, ast.ClassDef) and node.name == "InflightStep"]
    fields = {node.target.id for node in record.body if isinstance(node, ast.AnnAssign)}
    assert "span" not in fields
    base = ast.parse((engines / "base.py").read_text())
    [system] = [node for node in base.body
                if isinstance(node, ast.ClassDef) and node.name == "ControlSystem"]
    hooks = [node.name for node in system.body if isinstance(node, ast.FunctionDef)
             and node.name.startswith("obs_step_")]
    assert not hooks, hooks


def test_the_transport_has_one_observer():
    """Each physical message reaches the owning control system as the
    network ``observer``'s ``sent`` / ``received``, which keep the flight
    notes, receive counts and message spans.  No module under ``runtime/``
    names a ``causal`` tracer, a ``flight`` ring, a ``flight_factory``, a
    ``FlightRecorder`` or a ``MessageTracer``, and ``repro.obs.causal``
    stays gone."""
    forbidden = {"causal", "flight", "flight_factory", "FlightRecorder", "MessageTracer"}
    runtime = SRC / "repro" / "runtime"
    violations = []
    for module_path in sorted(runtime.rglob("*.py")):
        for node in ast.walk(ast.parse(module_path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "arg", None)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            if isinstance(node, ast.alias):
                names.append(node.asname or node.name.rpartition(".")[2])
            for name in filter(None, names):
                if name in forbidden:
                    where = module_path.relative_to(SRC)
                    violations.append(f"{where}:{getattr(node, 'lineno', '?')}: {name}")
    assert not violations, "\n".join(violations)
    assert not (SRC / "repro" / "obs" / "causal.py").exists(), "repro.obs.causal is back"


def test_parallel_control_overrides_only_the_coordination_leaves():
    """Parallel control is centralized control with ``e`` engines: the
    coordination walk lives in ``centralized/coordination.py`` only, and
    ``ParallelEngineNode`` overrides the leaves it broadcasts, none of the
    five walk methods.  ``ParallelControlSystem`` inherits the centralized
    facade, and the engine's RO/RD replicas are its own ``authorities``,
    not a second store."""
    walk = {"_coord_on_step_done", "_mx_acquire", "_mx_release",
            "_coord_on_rollback", "_release_coordination"}
    tree = ast.parse((SRC / "repro" / "engines" / "parallel.py").read_text())
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    assert "_CoordReplica" not in classes, "the second authority store is back"
    engine_methods = {n.name for n in classes["ParallelEngineNode"].body
                      if isinstance(n, ast.FunctionDef)}
    assert not engine_methods & walk, sorted(engine_methods & walk)
    assert engine_methods >= {"_ro_report", "_mx_request", "_mx_free",
                              "_rd_report", "_rd_trigger", "_withdraw"}
    assert [ast.unparse(b) for b in classes["ParallelControlSystem"].bases] == [
        "CentralizedControlSystem"]
    mixin = ast.parse(
        (SRC / "repro" / "engines" / "centralized" / "coordination.py").read_text())
    [coordination] = [n for n in mixin.body if isinstance(n, ast.ClassDef)]
    assert walk <= {n.name for n in coordination.body if isinstance(n, ast.FunctionDef)}


def test_one_front_door_and_one_outcome_path():
    """The four front-end WIs live in ``ControlSystem`` alone: a concrete
    system supplies only where a WI lands (``_place``, ``_owner_node``).
    An instance's end reaches the system as its end event, whose views
    record the outcome: no engine module calls ``_record_outcome``."""
    wis = {"start_workflow", "abort_workflow", "change_inputs", "workflow_status"}
    engines = SRC / "repro" / "engines"
    for module, name in (("centralized/system.py", "CentralizedControlSystem"),
                         ("parallel.py", "ParallelControlSystem"),
                         ("distributed/system.py", "DistributedControlSystem")):
        tree = ast.parse((engines / module).read_text())
        [facade] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
        methods = {n.name for n in facade.body if isinstance(n, ast.FunctionDef)}
        assert not methods & wis, (name, sorted(methods & wis))
        assert {"_place", "_owner_node"} <= methods, name
    calls = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(engines.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_record_outcome"
    ]
    assert not calls, calls


def test_import_repro_leaves_importlib_metadata_unloaded():
    """``repro.__version__`` is a constant equal to ``pyproject.toml``'s
    ``[project] version`` (read without ``tomllib``, which 3.10 lacks), so
    ``import repro`` pays for no distribution lookup and none of the
    ``email``/``socket`` modules ``importlib.metadata`` pulls in."""
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project.group(1), re.M)
    import repro

    assert repro.__version__ == declared.group(1)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('importlib.metadata' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert loaded == "False"


#: ``InstanceState.snapshot`` shares these dicts with the live state
#: instead of copying them, so code may only ever replace them.
REPLACE_ONLY = {"last_inputs", "last_outputs", "events_snapshot"}
_MUTATORS = {"update", "pop", "clear", "setdefault", "popitem"}


def test_replace_only_dicts_are_never_written_in_place():
    """No code under ``src/`` writes into a step row's ``last_inputs`` /
    ``last_outputs`` or a fragment's ``events_snapshot``: no item store
    or ``del``, no ``|=``, no mutating method call.  A chain base in the
    engine log holds the same dict objects as the live state; an
    in-place write would change the base too, and the next delta would
    miss it."""

    def replace_only(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in REPLACE_ONLY

    writes = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript):
                hit = replace_only(node.value) and isinstance(
                    node.ctx, (ast.Store, ast.Del))
            elif isinstance(node, ast.AugAssign):
                hit = replace_only(node.target)
            elif isinstance(node, ast.Call):
                hit = (isinstance(node.func, ast.Attribute)
                       and node.func.attr in _MUTATORS
                       and replace_only(node.func.value))
            else:
                continue
            if hit:
                writes.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not writes, writes
