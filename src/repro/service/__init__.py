"""The ``repro serve`` daemon: workflows over HTTP on the wall clock.

This package is the real-time front door: the same engine stack that
powers the paper's simulations (:mod:`repro.engines`), mounted on the
wall-clock runtime (:mod:`repro.runtime.realtime`) and driven by workflow submissions over
local HTTP/JSON instead of a workload generator.

* :mod:`repro.service.core` — :class:`WorkflowService`: owns the control
  system, installs submitted LAWS/schema-JSON documents, starts
  instances, fans live trace events out to subscribers, and carries the
  observability plane (metrics registry, structured logs, profiler,
  flight recorder) through the runtime's duck-typed hooks.
* :mod:`repro.service.http` — the dependency-free HTTP/1.1 front door:
  ``/healthz`` (liveness), ``/readyz`` (readiness, 503 while booting or
  draining), ``/version``, ``POST /workflows``, ``/instances``,
  ``/instances/<id>``, ``/instances/<id>/events`` and ``/events``
  (NDJSON streaming), ``/metrics`` (Prometheus text), ``/debug/trace``
  (JSONL for ``repro analyze``), ``/debug/profile`` (collapsed stacks).
"""

from repro.service.core import WorkflowService, schema_from_dict
from repro.service.http import serve, start_server

__all__ = ["WorkflowService", "schema_from_dict", "serve", "start_server"]
