"""Zero-dependency span tracer with context-propagated request IDs.

One *trace* is the tree of timed *spans* a single request produced:
``http.link`` → ``service.request`` → ``linker.rewrite`` /
``linker.retrieve`` / ``linker.phase2`` (assemble, decode) /
``linker.rerank``.  Each span carries tags (k, cache hits, degraded
reason …) and point-in-time events (e.g. a fired fault probe), and maps
onto the paper's Figure 11 OR/CR/ED/RT taxonomy via its ``phase`` tag.

Design constraints, in order:

1. **Near-zero cost when idle.**  Instrumented code calls the module
   functions :func:`span`/:func:`span_event` unconditionally; when no
   sampled trace is active in the current context they return a shared
   no-op singleton after one ``ContextVar`` read.  That is what keeps
   the traced-off serving path within 1% of untraced (``BENCH_obs.json``).
2. **Explicit cross-thread propagation.**  ``ContextVar`` state does
   not follow work handed to another thread, so the serving
   dispatcher carries each request's span with the request and the
   linker re-enters it via :func:`attach` — span trees stay correct
   even though Phase II runs on the dispatcher thread, not the HTTP
   handler's.
3. **Bounded retention.**  Finished traces land in a ring buffer
   (``deque(maxlen=capacity)``); a trace is also capped in span and
   event count so one pathological request cannot hold the process
   hostage.

No imports from ``repro``: core modules and even :mod:`repro.utils.faults`
may import this module without layering cycles.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Hard caps per trace; beyond them spans/events are counted but dropped.
MAX_SPANS_PER_TRACE = 512
MAX_EVENTS_PER_SPAN = 64

_CURRENT: "ContextVar[Optional[Span]]" = ContextVar(
    "repro_current_span", default=None
)


def new_request_id() -> str:
    """A fresh 16-hex-char request identifier."""
    return uuid.uuid4().hex[:16]


class _NoopSpan:
    """Shared do-nothing span: the fast path when tracing is off.

    Supports the full :class:`Span` surface (tags, events, context
    manager, ``end``) so instrumented code never branches on whether
    tracing is active.
    """

    __slots__ = ()
    is_recording = False
    trace_id = None
    request_id = None
    span_id = None

    def set_tag(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def add_event(self, name: str, **attrs: Any) -> "_NoopSpan":
        return self

    def child(self, name: str, **tags: Any) -> "_NoopSpan":
        return self

    def end(self) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _TraceRecord:
    """Mutable collection state for one in-flight trace."""

    __slots__ = (
        "trace_id",
        "request_id",
        "name",
        "started_at",
        "origin",
        "lock",
        "spans",
        "dropped_spans",
        "next_span_id",
    )

    def __init__(self, trace_id: str, request_id: str, name: str) -> None:
        self.trace_id = trace_id
        self.request_id = request_id
        self.name = name
        self.started_at = time.time()
        # perf_counter anchor: span offsets are relative to this.
        self.origin = time.perf_counter()
        self.lock = threading.Lock()
        self.spans: List[Dict[str, Any]] = []
        self.dropped_spans = 0
        self.next_span_id = 0

    def allocate_span_id(self) -> str:
        with self.lock:
            self.next_span_id += 1
            return f"s{self.next_span_id}"

    def append(self, span_dict: Dict[str, Any]) -> bool:
        with self.lock:
            if len(self.spans) >= MAX_SPANS_PER_TRACE:
                self.dropped_spans += 1
                return False
            self.spans.append(span_dict)
            return True

    def as_dict(self) -> Dict[str, Any]:
        with self.lock:
            spans = sorted(self.spans, key=lambda s: s["start_s"])
            dropped = self.dropped_spans
        duration = max(
            (s["start_s"] + s["duration_s"] for s in spans), default=0.0
        )
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "name": self.name,
            "started_at": self.started_at,
            "duration_s": duration,
            "spans": spans,
            "dropped_spans": dropped,
        }


class Span:
    """One timed, tagged node of a trace tree.

    Use as a context manager to also install the span as the current
    context (children created via :func:`span` nest under it), or hold
    the object and call :meth:`end` for spans whose lifetime crosses
    ``with`` boundaries (e.g. a request span resolved by a future).
    """

    __slots__ = (
        "tracer",
        "_record",
        "name",
        "span_id",
        "parent_id",
        "_start",
        "tags",
        "events",
        "_ended",
        "_token",
    )

    is_recording = True

    def __init__(
        self,
        tracer: "Tracer",
        record: _TraceRecord,
        name: str,
        parent_id: Optional[str],
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self._record = record
        self.name = name
        self.span_id = record.allocate_span_id()
        self.parent_id = parent_id
        self._start = time.perf_counter()
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.events: List[Dict[str, Any]] = []
        self._ended = False
        self._token = None

    # -- identity -----------------------------------------------------------

    @property
    def trace_id(self) -> str:
        return self._record.trace_id

    @property
    def request_id(self) -> str:
        return self._record.request_id

    # -- recording ----------------------------------------------------------

    def set_tag(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one tag; returns self for chaining."""
        self.tags[key] = value
        return self

    def add_event(self, name: str, **attrs: Any) -> "Span":
        """Record a point-in-time event at the current offset."""
        if len(self.events) < MAX_EVENTS_PER_SPAN:
            event: Dict[str, Any] = {
                "name": name,
                "at_s": time.perf_counter() - self._record.origin,
            }
            if attrs:
                event["attrs"] = attrs
            self.events.append(event)
        return self

    def child(self, name: str, **tags: Any) -> "Span":
        """A manual-lifetime child span (not installed as current).

        The front-end's dispatcher uses this to hang queue-wait and
        dispatch spans under a request span it holds by reference but
        whose context it never entered.
        """
        return self.tracer._child(self, name, tags or None)

    def end(self) -> None:
        """Finish the span (idempotent); roots finalise their trace."""
        if self._ended:
            return
        self._ended = True
        now = time.perf_counter()
        self._record.append(
            {
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "start_s": self._start - self._record.origin,
                "duration_s": now - self._start,
                "tags": self.tags,
                "events": self.events,
            }
        )
        if self.parent_id is None:
            self.tracer._finish(self._record)

    # -- context ------------------------------------------------------------

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc is not None:
            self.set_tag("error", f"{type(exc).__name__}: {exc}")
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self.end()
        return False


class _Attach:
    """Context manager installing an existing span as current."""

    __slots__ = ("_span", "_token")

    def __init__(self, span: Span) -> None:
        self._span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, *exc: Any) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
        return False


class _NoopAttach:
    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


_NOOP_ATTACH = _NoopAttach()


class Tracer:
    """Sampling root-span factory plus a bounded ring of finished traces.

    ``sample_rate`` is deterministic, not random: an accumulator adds
    the rate per root and samples when it crosses 1, so a rate of 0.25
    keeps exactly every fourth trace — reproducible in tests and free
    of RNG coupling.  0 disables tracing (roots are no-ops), 1 keeps
    every trace.
    """

    def __init__(self, sample_rate: float = 1.0, capacity: int = 64) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sample_rate = sample_rate
        self.capacity = capacity
        self._lock = threading.Lock()
        self._accumulator = 0.0
        self._started = 0
        self._sampled = 0
        self._finished = 0
        self._ring: List[Dict[str, Any]] = []

    # -- roots --------------------------------------------------------------

    def start_trace(
        self,
        name: str,
        request_id: Optional[str] = None,
        **tags: Any,
    ):
        """Begin a root span, or :data:`NOOP_SPAN` if not sampled."""
        with self._lock:
            self._started += 1
            self._accumulator += self.sample_rate
            sampled = self._accumulator >= 1.0
            if sampled:
                self._accumulator -= 1.0
                self._sampled += 1
        if not sampled:
            return NOOP_SPAN
        record = _TraceRecord(
            trace_id=uuid.uuid4().hex[:16],
            request_id=request_id if request_id else new_request_id(),
            name=name,
        )
        return Span(self, record, name, parent_id=None, tags=tags)

    def _child(
        self, parent: Span, name: str, tags: Optional[Dict[str, Any]]
    ) -> Span:
        return Span(
            self, parent._record, name, parent_id=parent.span_id, tags=tags
        )

    def _finish(self, record: _TraceRecord) -> None:
        trace_dict = record.as_dict()
        with self._lock:
            self._finished += 1
            self._ring.append(trace_dict)
            if len(self._ring) > self.capacity:
                del self._ring[: len(self._ring) - self.capacity]

    # -- introspection ------------------------------------------------------

    def traces(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Finished traces, most recent first."""
        with self._lock:
            snapshot = list(reversed(self._ring))
        if limit is not None:
            snapshot = snapshot[: max(limit, 0)]
        return snapshot

    def find(self, request_id: str) -> Optional[Dict[str, Any]]:
        """The most recent finished trace for ``request_id``, if retained."""
        for trace_dict in self.traces():
            if trace_dict["request_id"] == request_id:
                return trace_dict
        return None

    def stats(self) -> Dict[str, Any]:
        """Sampling and retention counters, JSON-ready."""
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "capacity": self.capacity,
                "started": self._started,
                "sampled": self._sampled,
                "finished": self._finished,
                "retained": len(self._ring),
            }


# -- module-level instrumentation hooks ------------------------------------


def current_span():
    """The context's active span, or None outside any sampled trace."""
    return _CURRENT.get()


def current_request_id() -> Optional[str]:
    """Request ID of the active trace, or None (for log correlation)."""
    span_obj = _CURRENT.get()
    return span_obj.request_id if span_obj is not None else None


def span(name: str, **tags: Any):
    """A child span of the current context, or the no-op singleton.

    This is the hook instrumented code calls unconditionally::

        with trace.span("linker.retrieve", phase="CR", k=k) as sp:
            hits = index.search(query)
            sp.set_tag("candidates", len(hits))

    Cost when no sampled trace is active: one ContextVar read.
    """
    parent = _CURRENT.get()
    if parent is None:
        return NOOP_SPAN
    return parent.tracer._child(parent, name, tags or None)


def start_span(name: str, **tags: Any):
    """Like :func:`span` but for manual lifetime management.

    The returned span is *not* installed as current; the caller ends it
    explicitly (or hands it to a worker thread via :func:`attach`).
    """
    return span(name, **tags)


def attach(span_obj):
    """Install ``span_obj`` as the current span for a ``with`` block.

    This is the cross-thread propagation primitive: capture a span in
    the submitting thread, re-enter it on the worker.  ``None`` and
    no-op spans yield a no-op context manager.
    """
    if span_obj is None or not span_obj.is_recording:
        return _NOOP_ATTACH
    return _Attach(span_obj)


def span_event(name: str, **attrs: Any) -> None:
    """Record an event on the current span (no-op outside a trace)."""
    span_obj = _CURRENT.get()
    if span_obj is not None:
        span_obj.add_event(name, **attrs)


# -- cross-process transport -------------------------------------------------
#
# A worker process cannot share Span objects with the parent: spans
# live in a per-process _TraceRecord.  Instead the worker runs its own
# Tracer, finishes its local trace, ships the plain-dict payload
# (export_trace) back over the result pipe, and the parent grafts the
# subtree under the span that dispatched the job (graft).  Clock
# alignment uses the wall-clock ``started_at`` both records carry —
# same machine, same clock, so offsets line up to scheduler noise.


def export_trace(root_span) -> Optional[Dict[str, Any]]:
    """Serialise a finished span's whole trace for pipe transport.

    Returns ``None`` for no-op spans, so untraced requests ship no
    payload at all (the sampling-off fast path stays free).  Call after
    the root has ended; the payload is the record's JSON-ready dict.
    """
    if root_span is None or not getattr(root_span, "is_recording", False):
        return None
    return root_span._record.as_dict()


def graft(parent_span, payload: Optional[Dict[str, Any]]) -> int:
    """Splice a foreign (serialised) span tree under ``parent_span``.

    Foreign span IDs are re-allocated from the parent's record (two
    workers' subtrees can never collide), parent links are remapped,
    and start offsets / event times are shifted onto the parent
    record's timebase via the wall-clock delta between the two traces'
    ``started_at``.  Foreign roots — and any span whose parent did not
    survive the worker's span cap — attach directly under
    ``parent_span``, so a truncated subtree degrades to a flatter tree
    instead of dropping spans.  Returns the number of spans grafted
    (0 for no-op parents or empty payloads); the trace's span cap still
    applies, with overflow counted in ``dropped_spans``.
    """
    if (
        parent_span is None
        or not getattr(parent_span, "is_recording", False)
        or not payload
        or not payload.get("spans")
    ):
        return 0
    record = parent_span._record
    base = float(payload.get("started_at", record.started_at)) - record.started_at
    id_map = {
        span_dict["span_id"]: record.allocate_span_id()
        for span_dict in payload["spans"]
    }
    grafted = 0
    for span_dict in payload["spans"]:
        events = []
        for event in span_dict.get("events", ()):
            shifted = dict(event)
            shifted["at_s"] = event.get("at_s", 0.0) + base
            events.append(shifted)
        if record.append(
            {
                "span_id": id_map[span_dict["span_id"]],
                "parent_id": id_map.get(
                    span_dict.get("parent_id"), parent_span.span_id
                ),
                "name": span_dict["name"],
                "start_s": span_dict["start_s"] + base,
                "duration_s": span_dict["duration_s"],
                "tags": dict(span_dict.get("tags") or {}),
                "events": events,
            }
        ):
            grafted += 1
    dropped = payload.get("dropped_spans", 0)
    if dropped:
        with record.lock:
            record.dropped_spans += dropped
    return grafted


# -- rendering --------------------------------------------------------------


def _format_tags(tags: Dict[str, Any]) -> str:
    if not tags:
        return ""
    inner = ", ".join(f"{key}={tags[key]}" for key in sorted(tags))
    return " {" + inner + "}"


def _walk(
    children: Dict[Optional[str], List[Dict[str, Any]]],
    parent_id: Optional[str],
    depth: int,
) -> Iterator[Tuple[int, Dict[str, Any]]]:
    for span_dict in children.get(parent_id, ()):
        yield depth, span_dict
        yield from _walk(children, span_dict["span_id"], depth + 1)


def format_trace(trace_dict: Dict[str, Any]) -> str:
    """Render one finished trace as an indented span tree.

    Stitched multi-process traces render as one tree: spans grafted
    from a worker process show their origin ``[pid N]`` inline, and a
    span whose parent is missing from the trace (a foreign subtree
    whose link was lost) is promoted to the root level and marked
    ``(orphan)`` instead of being silently dropped.
    """
    known_ids = {span_dict["span_id"] for span_dict in trace_dict["spans"]}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    orphans: List[Dict[str, Any]] = []
    for span_dict in trace_dict["spans"]:
        parent_id = span_dict["parent_id"]
        if parent_id is not None and parent_id not in known_ids:
            orphans.append(span_dict)
            children.setdefault(None, []).append(span_dict)
        else:
            children.setdefault(parent_id, []).append(span_dict)
    orphan_ids = {span_dict["span_id"] for span_dict in orphans}
    for sibling_list in children.values():
        sibling_list.sort(key=lambda s: s["start_s"])
    lines = [
        "trace {trace_id} request={request_id} {name} "
        "{duration:.2f}ms spans={count}".format(
            trace_id=trace_dict["trace_id"],
            request_id=trace_dict["request_id"],
            name=trace_dict["name"],
            duration=trace_dict["duration_s"] * 1e3,
            count=len(trace_dict["spans"]),
        )
    ]
    for depth, span_dict in _walk(children, None, 0):
        tags = dict(span_dict["tags"])
        origin = ""
        if "pid" in tags:
            origin = f" [pid {tags.pop('pid')}]"
        marker = " (orphan)" if span_dict["span_id"] in orphan_ids else ""
        lines.append(
            "{indent}{name} {duration:.2f}ms{origin}{marker}{tags}".format(
                indent="  " * (depth + 1),
                name=span_dict["name"],
                duration=span_dict["duration_s"] * 1e3,
                origin=origin,
                marker=marker,
                tags=_format_tags(tags),
            )
        )
        for event in span_dict["events"]:
            attrs = event.get("attrs") or {}
            lines.append(
                "{indent}! {name}{tags}".format(
                    indent="  " * (depth + 2),
                    name=event["name"],
                    tags=_format_tags(attrs),
                )
            )
    if trace_dict.get("dropped_spans"):
        lines.append(f"  … {trace_dict['dropped_spans']} spans dropped")
    return "\n".join(lines)
