"""Architectural import-layering contract.

The package stack is layered bottom-up: no package may import from a
layer above it (``engines -> core -> rules/storage -> sim -> runtime``,
with ``errors`` at the bottom and the CLI at the top).  The test walks
every module's AST, so violations are caught even in rarely-executed
code paths.  Imports guarded by ``if TYPE_CHECKING:`` are exempt — they
break cycles for annotations only and vanish at runtime.

Two extra contracts guard the pluggable-runtime boundary: engines may
construct against :mod:`repro.runtime` protocols only (no
``repro.sim`` imports anywhere under ``repro/engines/``), and the
runtime layer itself may not statically import any backend (the
``"sim"`` backend is resolved lazily by name in the factory).
"""

from __future__ import annotations

import ast
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


def test_engines_never_import_sim():
    """Engines construct against the repro.runtime protocols only: the
    simulated backend is one implementation among several, resolved by
    name through the runtime factory.  No module under repro/engines/
    may import repro.sim (TYPE_CHECKING-only imports included — the
    annotation surface must stay backend-neutral too)."""
    engines = SRC / "repro" / "engines"
    violations = []
    for module_path in sorted(engines.rglob("*.py")):
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            for name in names:
                if name == "repro.sim" or name.startswith("repro.sim."):
                    violations.append(
                        f"{module_path.relative_to(SRC)}:{node.lineno} "
                        f"imports {name}: engines must depend on "
                        f"repro.runtime protocols only"
                    )
    assert not violations, "\n".join(violations)


def test_sim_reexport_shims_stay_deleted():
    """The ``repro.sim.{network,node,metrics,rng,tracing,faults}``
    re-export shims are gone: runtime-neutral code is imported from
    :mod:`repro.runtime`, and nothing may bring the old paths back."""
    sim = SRC / "repro" / "sim"
    for shim in ("network", "node", "metrics", "rng", "tracing", "faults"):
        assert not (sim / f"{shim}.py").exists(), f"repro.sim.{shim} is back"
        assert not (sim / shim).exists(), f"repro.sim.{shim} is back"


def test_relative_order_scan_stays_a_test_oracle():
    """``RelativeOrderAuthority`` answers from its conflict-key index.  The
    scan implementation lives under ``tests/`` only (nothing in ``src/``
    defines it or imports from ``tests``), and the two views that walk
    every registration — ``leaders_of`` and ``established_pairs`` — are
    introspection: no engine path calls them."""
    violations = []
    for module_path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(module_path.read_text(), filename=str(module_path))
        where = module_path.relative_to(SRC)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "ScanRelativeOrderAuthority":
                violations.append(f"{where}:{node.lineno} defines the scan oracle")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("leaders_of", "established_pairs")
                and top_package(module_path) == "engines"
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
    disk.  The naive rule engine is a test oracle too."""
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
    assert calls(member(service / "durability.py", "ServiceLog"), "record_checksum"), \
        "ServiceLog no longer checks records with the service.wal convention"
    for module_path in sorted(service.rglob("*.py")):
        if "marshal" in module_path.read_text():
            violations.append(f"{module_path.relative_to(SRC)} mentions marshal")
    assert not violations, "\n".join(violations)


def test_previous_observability_plane_stays_a_test_oracle():
    """A span has one construction path (``Tracer.add``; a message row
    becomes a ``Span`` in ``_message_span`` when read), and the profiler
    keeps a call tree, no per-pop tables.  The tracer, profiler and
    registry that did otherwise live under ``tests/`` only (the loop in
    ``test_relative_order_scan_stays_a_test_oracle`` keeps ``src/`` from
    importing them)."""
    obs = SRC / "repro" / "obs"
    builders = []
    spans = ast.parse((obs / "spans.py").read_text())
    for scope in ast.walk(spans):
        if not isinstance(scope, ast.FunctionDef):
            continue
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Span":
                builders.append(scope.name)
    assert sorted(builders) == ["_message_span", "add"]
    profiler = ast.parse((obs / "profile.py").read_text())
    stale = {node.attr for node in ast.walk(profiler)
             if isinstance(node, ast.Attribute)} & {"_path_cache", "_collapsed", "_stats"}
    assert not stale, f"per-pop profiler tables are back: {sorted(stale)}"


def test_purge_forgets_through_one_retire_routine():
    """The agent that broadcasts a purge and the agents that receive it
    forget the same things: both go through ``_retire``, neither names a
    per-instance map itself, and nothing else in distributed control
    purges the AGDB."""
    distributed = SRC / "repro" / "engines" / "distributed"
    failure = ast.parse((distributed / "failure.py").read_text())
    methods = {
        node.name: node for node in ast.walk(failure) if isinstance(node, ast.FunctionDef)
    }
    for name in ("_on_purge", "_broadcast_purge"):
        attributes = {n.attr for n in ast.walk(methods[name]) if isinstance(n, ast.Attribute)}
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


def test_daemon_hot_paths_spawn_no_task_per_step_or_event():
    """A step is a loop timer and a streamed batch of events one future:
    the executor and the stream pump create no Task, race no
    ``asyncio.wait`` and sleep in no coroutine, and no ``asyncio.Queue``
    feed is back beside :class:`repro.service.core.EventFeed`."""
    realtime = ast.parse((SRC / "repro" / "runtime" / "realtime.py").read_text())
    http = ast.parse((SRC / "repro" / "service" / "http.py").read_text())
    [executor] = [n for n in ast.walk(realtime)
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
    realtime = ast.parse((SRC / "repro" / "runtime" / "realtime.py").read_text())
    kernel = ast.parse((SRC / "repro" / "sim" / "kernel.py").read_text())
    classes = {n.name: n for tree in (realtime, kernel) for n in tree.body
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


def test_runtime_layer_has_no_static_backend_imports():
    """repro.runtime must not statically import repro.sim: backends
    register with the factory as lazy ``module:attr`` strings, so the
    protocol layer stays below every implementation."""
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
