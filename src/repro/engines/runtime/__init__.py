"""Architecture-independent per-instance enactment machinery.

The paper's three control architectures (centralized, parallel,
distributed) place the *same* enactment semantics at different nodes.
This layer holds the per-instance bookkeeping every placement needs:

* :mod:`~repro.engines.runtime.instance` — the volatile per-instance
  runtime records (:class:`InstanceRuntime` and its engine-side and
  agent-side specializations);
* :mod:`~repro.engines.runtime.inflight` — dispatched-step and
  load-probe wait state;
* :mod:`~repro.engines.runtime.compensation` — compensation-chain
  records and chain-ordering helpers (dependent sets, abandoned
  branches);
* :mod:`~repro.engines.runtime.invalidation` — rollback-round
  bookkeeping (token -> round high-water marks).
"""

from repro.engines.runtime.compensation import (
    CompensationChain,
    compensate_set_chain,
    member_done_times,
    reverse_topo_order,
)
from repro.engines.runtime.inflight import InflightStep, LoadProbe, ProbeWait
from repro.engines.runtime.instance import (
    AgentRuntime,
    EngineRuntime,
    InstanceRuntime,
)
from repro.engines.runtime.invalidation import (
    absorb_invalidations,
    merge_invalidations,
    open_invalidation_round,
)

__all__ = [
    "AgentRuntime",
    "CompensationChain",
    "EngineRuntime",
    "InflightStep",
    "InstanceRuntime",
    "LoadProbe",
    "ProbeWait",
    "absorb_invalidations",
    "compensate_set_chain",
    "member_done_times",
    "merge_invalidations",
    "open_invalidation_round",
    "reverse_topo_order",
]
