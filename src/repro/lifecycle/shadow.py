"""Shadow scoring: mirror live traffic onto a candidate linker.

Before a retrained model may serve, it must prove itself on the
traffic the incumbent is *actually* answering — not a held-out set
that may have drifted.  :class:`ShadowScorer` runs the candidate on a
background thread fed by a bounded queue of mirrored queries; for each
it records whether the candidate agrees with the primary's top
concept, the paired top-1 log-prob delta, and the latency ratio.  The
promotion gate in :mod:`repro.lifecycle.swap` reads :meth:`report`.

Mirroring is strictly best-effort and can never hurt the live path:
``submit`` never blocks (a full queue increments a drop counter), the
worker catches every ``Exception`` (an injected fault or a crashing
candidate books a shadow error, it does not unwind serving), and the
whole scorer lives off-thread from the service's dispatcher.

Each shadow execution opens a ``lifecycle.shadow`` root trace (when a
tracer is supplied), so the candidate's CR/ED spans land in
``/v1/traces`` next to the primary's — the operator can eyeball the
two span trees side by side before promoting.  The probe site
``lifecycle.shadow`` sits inside the worker: a ``delay`` fault spec
there inflates the candidate's latency ratio, which is how the drill
suite proves the latency gate actually blocks a slow candidate.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.linker import NeuralConceptLinker
from repro.obs import trace
from repro.obs.trace import Tracer
from repro.serving.metrics import MetricsRegistry
from repro.utils.errors import ConfigurationError
from repro.utils.faults import probe
from repro.utils.logging import get_logger

LOGGER = get_logger("lifecycle.shadow")


@dataclass(frozen=True)
class _ShadowItem:
    query: str
    k: Optional[int]
    primary_top_cid: Optional[str]
    primary_log_prob: float
    primary_seconds: float


class ShadowScorer:
    """Background mirror-scorer for one candidate linker."""

    def __init__(
        self,
        linker: NeuralConceptLinker,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        queue_capacity: int = 128,
        sample_every: int = 1,
    ) -> None:
        if queue_capacity <= 0:
            raise ConfigurationError(
                f"shadow queue capacity must be positive, got {queue_capacity}"
            )
        if sample_every <= 0:
            raise ConfigurationError(
                f"sample_every must be positive, got {sample_every}"
            )
        self.linker = linker
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.sample_every = sample_every
        self._queue: "queue.Queue[Optional[_ShadowItem]]" = queue.Queue(
            maxsize=queue_capacity
        )
        self._lock = threading.Lock()
        self._closed = False
        self._seen = 0
        self._submitted = 0
        self._dropped = 0
        self._scored = 0
        self._agreed = 0
        self._errors = 0
        self._delta_sum = 0.0
        self._primary_seconds = 0.0
        self._shadow_seconds = 0.0
        self._thread = threading.Thread(
            target=self._run, name="lifecycle-shadow", daemon=True
        )
        self._thread.start()

    # -- producer side ------------------------------------------------------

    def submit(
        self,
        query: str,
        k: Optional[int],
        primary_top_cid: Optional[str],
        primary_log_prob: float,
        primary_seconds: float,
    ) -> bool:
        """Mirror one served query onto the candidate (never blocks)."""
        with self._lock:
            if self._closed:
                return False
            self._seen += 1
            if (self._seen - 1) % self.sample_every != 0:
                return False
        item = _ShadowItem(
            query=query,
            k=k,
            primary_top_cid=primary_top_cid,
            primary_log_prob=primary_log_prob,
            primary_seconds=primary_seconds,
        )
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            with self._lock:
                self._dropped += 1
            self.metrics.counter("lifecycle_shadow_dropped").inc()
            return False
        with self._lock:
            self._submitted += 1
        return True

    # -- worker side --------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            root = (
                self.tracer.start_trace("lifecycle.shadow", query=item.query)
                if self.tracer is not None
                else None
            )
            try:
                with trace.attach(root):
                    started = time.monotonic()
                    probe("lifecycle.shadow")
                    result = self.linker.link_batch(
                        [item.query], k=[item.k]
                    )[0]
                    elapsed = time.monotonic() - started
            except Exception as error:  # noqa: BLE001 - shadow must not unwind
                with self._lock:
                    self._errors += 1
                self.metrics.counter("lifecycle_shadow_errors").inc()
                LOGGER.warning(
                    "shadow scoring failed for %r: %s", item.query, error
                )
                continue
            finally:
                if root is not None:
                    root.end()
            top = result.ranked[0] if result.ranked else None
            agree = (
                top is not None
                and item.primary_top_cid is not None
                and top.cid == item.primary_top_cid
            )
            delta = (
                top.log_prob - item.primary_log_prob
                if top is not None
                else float("-inf")
            )
            with self._lock:
                self._scored += 1
                if agree:
                    self._agreed += 1
                if delta != float("-inf"):
                    self._delta_sum += delta
                self._primary_seconds += item.primary_seconds
                self._shadow_seconds += elapsed
            self.metrics.counter("lifecycle_shadow_total").inc()
            if agree:
                self.metrics.counter("lifecycle_shadow_agree").inc()
            self.metrics.histogram("lifecycle_shadow_seconds").observe(elapsed)

    # -- reporting ----------------------------------------------------------

    def drain(self, timeout: float = 5.0) -> None:
        """Block until every queued item has been scored (for tests)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                done = self._scored + self._errors >= self._submitted
            if done and self._queue.empty():
                return
            time.sleep(0.005)

    def report(self) -> Dict[str, Any]:
        """Paired comparison of candidate vs primary over mirrored traffic.

        ``agreement`` is top-1 concept agreement over *scored* samples;
        ``mean_log_prob_delta`` is candidate minus primary (negative =
        the candidate is less confident on the primary's traffic);
        ``latency_ratio`` is mean shadow seconds over mean primary
        seconds (1.0 = parity, conservatively +inf when the primary
        side reported zero time).
        """
        with self._lock:
            scored = self._scored
            agreement = self._agreed / scored if scored else 0.0
            delta = self._delta_sum / scored if scored else 0.0
            if scored and self._primary_seconds > 0.0:
                latency_ratio = self._shadow_seconds / self._primary_seconds
            elif scored:
                latency_ratio = float("inf")
            else:
                latency_ratio = 0.0
            return {
                "samples": scored,
                "agreement": agreement,
                "mean_log_prob_delta": delta,
                "latency_ratio": latency_ratio,
                "errors": self._errors,
                "dropped": self._dropped,
                "submitted": self._submitted,
                "seen": self._seen,
            }

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker (idempotent); queued-but-unscored items are lost."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=timeout)
