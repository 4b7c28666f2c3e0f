"""Online serving subsystem: long-lived, concurrent concept linking.

The paper evaluates NCL as an *online* system (Section 5, Figure 11);
this package turns the one-shot :class:`~repro.core.linker.NeuralConceptLinker`
into a service fit for sustained traffic:

* :mod:`repro.serving.metrics` — in-process counters and streaming
  latency histograms (p50/p95/p99) aggregating the per-query
  OR/CR/ED/RT :class:`~repro.utils.timing.TimingBreakdown`;
* :mod:`repro.serving.frontend` — the one dispatcher: bounded
  admission with shedding, and fusion of whatever is queued when the
  executor frees up into one ``link_batch``, so Phase-II scoring
  amortises across concurrent requests;
* :mod:`repro.serving.procpool` — forked worker processes, the
  executor for ``workers >= 1`` (``workers=0`` runs in-process);
* :mod:`repro.serving.service` — the orchestrator (warm start,
  readiness, request accounting);
* :mod:`repro.serving.server` — a stdlib-only threaded HTTP JSON API
  (``POST /link``, ``GET /healthz``, ``GET /readyz``, ``GET /metrics``).

Only the dependency-free leaf modules are imported eagerly here, so
importing this package never pulls in the HTTP layer (which imports
the linker).
"""

from repro.serving.metrics import (
    Counter,
    LatencyHistogram,
    MetricsRegistry,
)

__all__ = [
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
]
