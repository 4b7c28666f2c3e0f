"""Uncertainty pooling over live linking traffic (paper Appendix A).

The paper's expert-feedback loop ("Timon") surfaces the queries the
model is *least sure about* for human labelling: those whose top
candidate has high loss ``-log p(q|c;Θ)``, and those whose top two
candidates are nearly tied.  :class:`UncertaintyPool` implements that
tap as a bounded, thread-safe reservoir fed by
:class:`~repro.core.linker.LinkResult` objects straight off the serving
batch path — O(1) per observation, fixed memory, and statistically
uniform over the uncertain stream once the reservoir is full, so a
traffic burst late in the day cannot silently evict the morning's hard
queries with certainty.

Degraded results (Phase II failed or overran; scores are keyword-only)
are never pooled: their ``log_prob`` values carry no model signal, so
"uncertainty" computed from them would be noise.

This is the loop's only uncertainty rule: serving, the offline Timon
review page (:mod:`repro.lifecycle.timon`) and the Figure 10 runner
all classify with :meth:`UncertaintyPool.classify`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.linker import LinkResult
from repro.utils.errors import ConfigurationError


@dataclass
class PooledQuery:
    """One uncertain query awaiting expert resolution.

    ``candidates`` holds the ranked ``(cid, loss)`` pairs, which the
    Timon review page shows beside the query (Figure 9).  ``hits``
    counts how many times the same query text re-triggered a criterion
    while pooled — a cheap popularity signal the expert UI can sort by
    (a hard query asked 40 times outranks one asked once).
    """

    query: str
    top_cid: Optional[str]
    top_loss: float
    margin: float
    reason: str
    candidates: Tuple[Tuple[str, float], ...] = ()
    hits: int = field(default=1)


class UncertaintyPool:
    """Bounded reservoir of uncertain queries tapped from live traffic.

    Selection criteria (either pools the query):

    * ``loss``   — the top candidate's ``-log p(q|c;Θ)`` exceeds
      ``loss_threshold`` (the model ranked *something* first but finds
      even that explanation expensive);
    * ``margin`` — the top-2 log-prob gap is below
      ``margin_threshold`` (two candidates are nearly tied, so the
      argmax is a coin flip).

    Once ``capacity`` distinct queries are pooled, admission follows
    reservoir sampling over the uncertain stream: the *n*-th uncertain
    query is kept with probability ``capacity / n``, evicting a
    uniformly random incumbent — deterministic under ``seed``.
    """

    def __init__(
        self,
        capacity: int = 256,
        loss_threshold: float = 10.0,
        margin_threshold: float = 0.5,
        seed: int = 0,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"pool capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.loss_threshold = loss_threshold
        self.margin_threshold = margin_threshold
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._items: Dict[str, PooledQuery] = {}
        self._uncertain_seen = 0
        self._observed = 0
        self._pooled = 0
        self._duplicates = 0
        self._dropped = 0

    def classify(self, result: LinkResult) -> Optional[str]:
        """The criterion ``result`` trips, or None (read-only, no state)."""
        if result.degraded or not result.ranked:
            return None
        top = result.ranked[0]
        if top.loss > self.loss_threshold:
            return "loss"
        if len(result.ranked) >= 2:
            margin = top.log_prob - result.ranked[1].log_prob
            if margin < self.margin_threshold:
                return "margin"
        return None

    def observe(self, result: LinkResult) -> Optional[str]:
        """Feed one linking result; returns the pooling reason or None."""
        reason = self.classify(result)
        with self._lock:
            self._observed += 1
            if reason is None:
                return None
            top = result.ranked[0]
            margin = (
                top.log_prob - result.ranked[1].log_prob
                if len(result.ranked) >= 2
                else math.inf
            )
            candidates = tuple((c.cid, c.loss) for c in result.ranked)
            existing = self._items.get(result.query)
            if existing is not None:
                existing.hits += 1
                existing.top_cid = top.cid
                existing.top_loss = top.loss
                existing.margin = margin
                existing.reason = reason
                existing.candidates = candidates
                self._duplicates += 1
                return reason
            self._uncertain_seen += 1
            entry = PooledQuery(
                query=result.query,
                top_cid=top.cid,
                top_loss=top.loss,
                margin=margin,
                reason=reason,
                candidates=candidates,
            )
            if len(self._items) < self.capacity:
                self._items[result.query] = entry
                self._pooled += 1
                return reason
            slot = int(self._rng.integers(0, self._uncertain_seen))
            if slot >= self.capacity:
                self._dropped += 1
                return reason
            keys = list(self._items)
            evicted = keys[slot % len(keys)]
            del self._items[evicted]
            self._items[result.query] = entry
            self._pooled += 1
            self._dropped += 1
            return reason

    def items(self) -> List[PooledQuery]:
        """Snapshot of the pooled queries (pool unchanged)."""
        with self._lock:
            return list(self._items.values())

    def drain(self) -> List[PooledQuery]:
        """Remove and return everything pooled; the reservoir restarts."""
        with self._lock:
            drained = list(self._items.values())
            self._items.clear()
            # A fresh reservoir epoch: admission probabilities restart
            # from 1 rather than staying depressed by pre-drain history.
            self._uncertain_seen = 0
            return drained

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def stats(self) -> Dict[str, Any]:
        """JSON-ready counters for ``/v1/metrics``."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._items),
                "observed": self._observed,
                "pooled": self._pooled,
                "duplicates": self._duplicates,
                "dropped": self._dropped,
                "loss_threshold": self.loss_threshold,
                "margin_threshold": self.margin_threshold,
            }
