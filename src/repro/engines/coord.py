"""Coordination spec indexing and authority bundles for the engines.

:class:`SpecIndex` answers the static questions every node asks while
navigating ("is this step governed by a relative-ordering pair?", "does
this step open a mutual-exclusion region?"); :class:`AuthorityBundle`
holds the live authority state machines for the specs one node is the
authority for (the engine in centralized control, a deterministic engine
or agent otherwise).  :func:`later_pair_clearances` is the one
registration step every architecture's relative-order authority runs.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.coordination import (
    ClearanceGrant,
    MutualExclusionAuthority,
    RelativeOrderAuthority,
    RollbackDependencyAuthority,
)
from repro.errors import CoordinationError
from repro.model.coordination_spec import (
    CoordinationSpec,
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
)
from repro.storage.tables import InstanceState

__all__ = ["AuthorityBundle", "SpecIndex", "later_pair_clearances"]


class SpecIndex:
    """Static lookups over the installed coordination specs."""

    def __init__(self) -> None:
        self.ro: list[RelativeOrderSpec] = []
        self.mx: list[MutualExclusionSpec] = []
        self.rd: list[RollbackDependencySpec] = []

    def add(self, spec: CoordinationSpec) -> None:
        if isinstance(spec, RelativeOrderSpec):
            self.ro.append(spec)
        elif isinstance(spec, MutualExclusionSpec):
            self.mx.append(spec)
        elif isinstance(spec, RollbackDependencySpec):
            self.rd.append(spec)
        else:
            raise CoordinationError(f"unknown coordination spec type {type(spec)!r}")

    def all_specs(self) -> list[CoordinationSpec]:
        return [*self.ro, *self.mx, *self.rd]

    def specs_for(self, schema: str) -> list[CoordinationSpec]:
        return [s for s in self.all_specs() if s.involves(schema)]

    # -- relative ordering -------------------------------------------------------

    def ro_roles(self, schema: str, step: str) -> list[tuple[RelativeOrderSpec, int]]:
        """(spec, pair index) for every RO spec governing this step."""
        roles = []
        for spec in self.ro:
            for side, steps in ((spec.schema_a, spec.steps_a), (spec.schema_b, spec.steps_b)):
                if schema == side and step in steps:
                    roles.append((spec, steps.index(step)))
                    break
        return roles

    def ro_governed_pairs(self, schema: str) -> list[tuple[RelativeOrderSpec, int, str]]:
        """All (spec, pair index, step) the schema participates in."""
        out = []
        for spec in self.ro:
            for side, steps in ((spec.schema_a, spec.steps_a), (spec.schema_b, spec.steps_b)):
                if schema == side:
                    out.extend((spec, k, s) for k, s in enumerate(steps))
                    break
        return out

    # -- mutual exclusion ----------------------------------------------------------

    def mx_specs(self, schema: str) -> list[MutualExclusionSpec]:
        return [s for s in self.mx if s.involves(schema)]

    def mx_region_first(self, schema: str, step: str) -> list[MutualExclusionSpec]:
        return [s for s in self.mx_specs(schema) if s.region_of(schema)[0] == step]

    def mx_region_last(self, schema: str, step: str) -> list[MutualExclusionSpec]:
        return [s for s in self.mx_specs(schema) if s.region_of(schema)[1] == step]

    # -- rollback dependency -----------------------------------------------------------

    def rd_triggers(self, schema: str) -> list[RollbackDependencySpec]:
        return [s for s in self.rd if s.schema_a == schema]

    def rd_targets(self, schema: str, step: str) -> list[RollbackDependencySpec]:
        return [s for s in self.rd if s.schema_b == schema and s.rollback_to_b == step]

    # -- conflict binding ----------------------------------------------------------------

    @staticmethod
    def conflict_key_value(spec: CoordinationSpec, state: InstanceState) -> Hashable | None:
        """The instance's conflict-key value (None = conflicts with all)."""
        if spec.conflict_key is None:
            return None
        value = state.data.get(spec.conflict_key)
        if isinstance(value, Hashable):
            return value
        return str(value)


def later_pair_clearances(
    authority: RelativeOrderAuthority, schema: str, instance: str, key: Hashable | None
) -> list[ClearanceGrant]:
    """Request clearance for every later pair of a registered instance.

    Returns the grants that can proceed now, in pair order; the rest wait
    at the authority.  An instance withdrawn (abort) or retired (commit)
    since its pair-0 report requests nothing.
    """
    if not authority.is_registered(instance):
        return []
    grants = (
        authority.request_clearance(schema, instance, later, key)
        for later in range(1, len(authority.spec.steps_a))
    )
    return [grant for grant in grants if grant is not None]


class AuthorityBundle:
    """Live authority state machines, keyed by spec name."""

    def __init__(self) -> None:
        self.ro: dict[str, RelativeOrderAuthority] = {}
        self.mx: dict[str, MutualExclusionAuthority] = {}
        self.rd: dict[str, RollbackDependencyAuthority] = {}

    def host(self, spec: CoordinationSpec) -> None:
        if isinstance(spec, RelativeOrderSpec):
            self.ro[spec.name] = RelativeOrderAuthority(spec)
        elif isinstance(spec, MutualExclusionSpec):
            self.mx[spec.name] = MutualExclusionAuthority(spec)
        elif isinstance(spec, RollbackDependencySpec):
            self.rd[spec.name] = RollbackDependencyAuthority(spec)
        else:  # pragma: no cover - defensive
            raise CoordinationError(f"unknown coordination spec type {type(spec)!r}")

    def hosts(self, spec_name: str) -> bool:
        return spec_name in self.ro or spec_name in self.mx or spec_name in self.rd
