"""Declarative protocol invariants evaluated over reconstructed traces.

The paper's correctness claims are *orderings*; each invariant here turns
one of them into a predicate over a :class:`~repro.analysis.causal.CausalTrace`
so any fixed-seed run — live in a test, or a JSONL artifact in CI — is a
checkable witness:

``halt-before-reexecute``
    If a node records a ``halt.thread``/``rollback`` for recovery epoch
    *e*, that record precedes every epoch-*e* ``step.dispatch`` on the
    same node and instance.  (A node may legally execute at epoch *e*
    with no halt record at all — it can learn the epoch from a
    re-execution packet — so the converse is *not* an invariant.)

``reverse-order-compensation``
    Once a compensation chain is announced (``ocr.compensate`` with a
    ``chain`` detail, ``compensate.thread`` with ``steps``), the
    subsequent ``step.compensate`` records of that instance follow the
    chain order — i.e. reverse execution order — until the next chain
    announcement.

``epoch-monotonicity``
    Per (instance, node), the recovery epochs on ``rollback`` /
    ``halt.thread`` records strictly increase: invalidation rounds never
    regress or repeat.

``at-most-once-commit``
    An instance commits at most once, and never both commits and aborts.

``dispatch-once``
    No second ``step.dispatch`` of the same (instance, step, epoch) before
    that step's ``step.done`` / ``step.fail`` / ``step.redispatch`` /
    ``step.stale_result`` / ``step.reuse`` / ``step.takeover`` (a peer
    taking over a crashed executor's query step), or before the
    dispatching engine's or agent's recovery, which re-dispatches what was
    in flight; none by the node that logged the instance's
    ``workflow.abort.request`` after it (a distributed halt reaches the
    other agents hop by hop); and none below the epoch of the node's last
    ``halt.thread``/``rollback``.

Each checker returns :class:`Violation` objects carrying the offending
record chain, so a CLI or test failure shows *which* events broke the
rule, not just that one did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.causal import CausalTrace, RecordRow
from repro.errors import CrewError

__all__ = ["INVARIANTS", "Violation", "check_invariants"]


@dataclass(frozen=True)
class Violation:
    """One invariant violation with its offending evidence chain."""

    invariant: str
    instance: str
    message: str
    evidence: tuple[str, ...] = field(default_factory=tuple)

    def render(self) -> str:
        lines = [f"{self.invariant}: [{self.instance}] {self.message}"]
        lines.extend(f"    {item}" for item in self.evidence)
        return "\n".join(lines)


def _describe(rec: RecordRow) -> str:
    parts = " ".join(f"{k}={v}" for k, v in sorted(rec.detail.items()))
    return f"t={rec.time:.3f} {rec.node} {rec.kind} {parts}"


_HALT_KINDS = ("halt.thread", "rollback")
_CHAIN_ANNOUNCEMENTS = ("ocr.compensate", "compensate.thread")


def check_halt_before_reexecute(ct: CausalTrace) -> list[Violation]:
    """Epoch-e halt records precede all epoch-e executions on a node."""
    out: list[Violation] = []
    # (node, instance) -> epoch -> first execution record at that epoch.
    executed: dict[tuple[str, str], dict[int, RecordRow]] = {}
    for rec in ct.records:
        instance = rec.instance
        if instance is None:
            continue
        key = (rec.node, instance)
        if rec.kind == "step.dispatch":
            epoch = rec.detail.get("epoch")
            if isinstance(epoch, int):
                executed.setdefault(key, {}).setdefault(epoch, rec)
        elif rec.kind in _HALT_KINDS:
            epoch = rec.detail.get("epoch")
            if not isinstance(epoch, int):
                continue
            prior = executed.get(key, {}).get(epoch)
            if prior is not None:
                out.append(Violation(
                    "halt-before-reexecute", instance,
                    f"node {rec.node} recorded {rec.kind} for epoch {epoch} "
                    f"after already executing at that epoch",
                    (_describe(prior), _describe(rec)),
                ))
    return out


def check_reverse_order_compensation(ct: CausalTrace) -> list[Violation]:
    """Compensations follow their announced chain (reverse-exec) order."""
    out: list[Violation] = []
    # instance -> (chain record, step->index, last (index, record) seen)
    active: dict[str, tuple[RecordRow, dict[str, int], tuple[int, RecordRow] | None]] = {}
    for rec in ct.records:
        instance = rec.instance
        if instance is None:
            continue
        if rec.kind in _CHAIN_ANNOUNCEMENTS:
            raw = rec.detail.get("chain") or rec.detail.get("steps") or ""
            chain = [s for s in str(raw).split(",") if s]
            active[instance] = (rec, {s: i for i, s in enumerate(chain)}, None)
        elif rec.kind == "step.compensate":
            entry = active.get(instance)
            if entry is None:
                continue
            chain_rec, index_of, last = entry
            step = rec.detail.get("step")
            index = index_of.get(step)
            if index is None:
                continue  # belongs to another (e.g. abort) chain
            if last is not None and index <= last[0]:
                out.append(Violation(
                    "reverse-order-compensation", instance,
                    f"step {step!r} compensated out of chain order "
                    f"(position {index} after position {last[0]})",
                    (_describe(chain_rec), _describe(last[1]), _describe(rec)),
                ))
            active[instance] = (chain_rec, index_of, (index, rec))
    return out


def check_epoch_monotonicity(ct: CausalTrace) -> list[Violation]:
    """Recovery epochs strictly increase per (instance, node)."""
    out: list[Violation] = []
    last: dict[tuple[str, str], tuple[int, RecordRow]] = {}
    for rec in ct.records:
        if rec.kind not in _HALT_KINDS:
            continue
        instance = rec.instance
        epoch = rec.detail.get("epoch")
        if instance is None or not isinstance(epoch, int):
            continue
        key = (instance, rec.node)
        prev = last.get(key)
        if prev is not None and epoch <= prev[0]:
            out.append(Violation(
                "epoch-monotonicity", instance,
                f"node {rec.node} recorded {rec.kind} epoch {epoch} after "
                f"epoch {prev[0]}",
                (_describe(prev[1]), _describe(rec)),
            ))
        last[key] = (epoch, rec)
    return out


def check_at_most_once_commit(ct: CausalTrace) -> list[Violation]:
    """An instance commits at most once and never also aborts."""
    out: list[Violation] = []
    commits: dict[str, list[RecordRow]] = {}
    aborts: dict[str, list[RecordRow]] = {}
    for rec in ct.records:
        instance = rec.instance
        if instance is None:
            continue
        if rec.kind == "workflow.commit":
            commits.setdefault(instance, []).append(rec)
        elif rec.kind == "workflow.aborted":
            aborts.setdefault(instance, []).append(rec)
    for instance, recs in sorted(commits.items()):
        if len(recs) > 1:
            out.append(Violation(
                "at-most-once-commit", instance,
                f"committed {len(recs)} times",
                tuple(_describe(r) for r in recs),
            ))
        if instance in aborts:
            out.append(Violation(
                "at-most-once-commit", instance,
                "both committed and aborted",
                tuple(_describe(r) for r in recs + aborts[instance]),
            ))
    return out


_SETTLE_KINDS = ("step.done", "step.fail", "step.redispatch", "step.stale_result",
                 "step.reuse", "step.takeover")
#: An engine restoring its instances and an agent restoring its fragments:
#: each re-dispatches what it had in flight.
_RECOVERIES = ("engine.recovered", "agent.recovered")


def check_dispatch_once(ct: CausalTrace) -> list[Violation]:
    """One dispatch per (instance, step, epoch) until it settles; none by
    the node after its abort request or below its last halt's epoch."""
    out: list[Violation] = []
    # (instance, step) -> epoch -> the unsettled dispatch at that epoch.
    unsettled: dict[tuple[str, object], dict[object, RecordRow]] = {}
    # (node, instance) -> its abort request, its last halt.
    abort_requests: dict[tuple[str, str], RecordRow] = {}
    halts: dict[tuple[str, str], RecordRow] = {}
    for rec in ct.records:
        instance = rec.instance
        if rec.kind in _RECOVERIES:
            unsettled = {
                key: {epoch: d for epoch, d in by_epoch.items() if d.node != rec.node}
                for key, by_epoch in unsettled.items()
            }
        if instance is None:
            continue
        key = (instance, rec.detail.get("step"))
        if rec.kind == "workflow.abort.request":
            abort_requests.setdefault((rec.node, instance), rec)
        elif rec.kind in _HALT_KINDS:
            halts[rec.node, instance] = rec
        elif rec.kind in _SETTLE_KINDS:
            unsettled.pop(key, None)
        elif rec.kind == "step.dispatch":
            abort = abort_requests.get((rec.node, instance))
            if abort is not None:
                out.append(Violation(
                    "dispatch-once", instance,
                    f"step {key[1]!r} dispatched after the abort request",
                    (_describe(abort), _describe(rec)),
                ))
            epoch = rec.detail.get("epoch")
            halt = halts.get((rec.node, instance))
            halted = None if halt is None else halt.detail.get("epoch")
            if isinstance(epoch, int) and isinstance(halted, int) and epoch < halted:
                out.append(Violation(
                    "dispatch-once", instance,
                    f"step {key[1]!r} dispatched at epoch {epoch} after a halt "
                    f"at epoch {halted}",
                    (_describe(halt), _describe(rec)),
                ))
            prior = unsettled.setdefault(key, {}).get(epoch)
            if prior is not None:
                out.append(Violation(
                    "dispatch-once", instance,
                    f"step {key[1]!r} dispatched twice at epoch {epoch}",
                    (_describe(prior), _describe(rec)),
                ))
            unsettled[key][epoch] = rec
    return out


#: The invariant catalog, name -> checker.
INVARIANTS: dict[str, Callable[[CausalTrace], list[Violation]]] = {
    "halt-before-reexecute": check_halt_before_reexecute,
    "reverse-order-compensation": check_reverse_order_compensation,
    "epoch-monotonicity": check_epoch_monotonicity,
    "at-most-once-commit": check_at_most_once_commit,
    "dispatch-once": check_dispatch_once,
}


def check_invariants(
    ct: CausalTrace, names: list[str] | None = None
) -> list[Violation]:
    """Run (a subset of) the invariant catalog over a reconstructed trace."""
    selected = names if names is not None else list(INVARIANTS)
    out: list[Violation] = []
    for name in selected:
        try:
            checker = INVARIANTS[name]
        except KeyError:
            raise CrewError(
                f"unknown invariant {name!r}; catalog: {sorted(INVARIANTS)}"
            ) from None
        out.extend(checker(ct))
    return out
