"""Shared pieces of the benchmark: paths, statistics, correctness checks,
span recording with self time, memory and the environment stamp.

Nothing here imports ``repro`` at module level: ``run.py`` must be able
to refuse to run (and exit non-zero) in a directory with no ``src/``.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Largest |Δ log-prob| between a served score and the reference.
LOGPROB_TOLERANCE = 1e-9


def source_present() -> bool:
    """Whether the checkout holds the program this benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes).

    Identifies the code version when the checkout is not a git
    repository, and keys the model-build cache.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Candidate tail percentiles (the usual reporting ones), highest first.
TAIL_PERCENTILES = (0.999, 0.99, 0.95, 0.9, 0.5)


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with >= 10 samples beyond it."""
    for q in TAIL_PERCENTILES:
        if count * (1.0 - q) >= 10.0 - 1e-9:
            return q
    return 0.5


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- correctness ---------------------------------------------------------------


Ranking = List[Tuple[str, Optional[float]]]


def ranking_matches(served: Ranking, reference: Ranking) -> bool:
    """Same cid order and every |Δ log-prob| within tolerance."""
    if len(served) != len(reference):
        return False
    for (cid, score), (ref_cid, ref_score) in zip(served, reference):
        if cid != ref_cid or score is None or ref_score is None:
            return False
        if abs(score - ref_score) > LOGPROB_TOLERANCE:
            return False
    return True


def quality(first_hits: Dict[int, Ranking], gold: Sequence[str]) -> Tuple[float, float]:
    """Accuracy@1 and MRR over every query index in ``first_hits``.

    A query whose answer failed is in ``first_hits`` with an empty
    ranking, so it counts as a miss.
    """
    if not first_hits:
        return 0.0, 0.0
    top1 = 0
    reciprocal = 0.0
    for index, ranking in first_hits.items():
        cids = [cid for cid, _ in ranking]
        if cids and cids[0] == gold[index]:
            top1 += 1
        if gold[index] in cids:
            reciprocal += 1.0 / (cids.index(gold[index]) + 1)
    return top1 / len(first_hits), reciprocal / len(first_hits)


# -- spans ---------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans (name, start, end, parent, request id).

    Spans nest through a per-thread stack, so a wrapper opened inside
    another wrapper on the same thread becomes its child.  ``dump``
    writes everything out once, at the end of the run.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, name, request_id, start, end, parent, tags) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request_id": request_id,
                    "tags": tags,
                }
            )
        return span_id

    def open(self, name: str, request_id: str, **tags: Any) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = self._append(name, request_id, time.perf_counter(), None, parent, tags)
        stack.append(span_id)
        return span_id

    def close(self, span_id: int, **tags: Any) -> None:
        self._stack().remove(span_id)
        span = self.spans[span_id]
        span["end"] = time.perf_counter()
        span["tags"].update(tags)

    def add(
        self, name: str, request_id: str, start: float, end: float, **tags: Any
    ) -> int:
        """Record a root span whose bounds were measured elsewhere."""
        return self._append(name, request_id, start, end, None, tags)

    def current_request(self) -> Optional[str]:
        stack = self._stack()
        return self.spans[stack[-1]]["request_id"] if stack else None

    def wrap(self, obj: Any, method: str, name: str, count=None) -> None:
        """Replace ``obj.method`` by a span-recording wrapper.

        ``count(args, result)`` returns tags recorded on the span.
        """
        inner = getattr(obj, method)
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            request_id = recorder.current_request() or ""
            span_id = recorder.open(name, request_id)
            result = inner(*args, **kwargs)
            recorder.close(span_id, **(count(args, result) if count else {}))
            return result

        setattr(obj, method, wrapper)

    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.spans, **(extra or {})}
        path.write_text(json.dumps(payload), encoding="utf-8")


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Each span's self time: the part of its interval no child covers.

    ``spans`` carry ``start``/``end`` and a ``parent`` index into the
    same list (or None).  Sibling spans may overlap (the queries of one
    request run side by side in a worker), so each instant is booked
    once, to the deepest span open at that instant (the latest started
    among equals).  Self times of one trace therefore add up to its
    root's duration.
    """
    depth = []
    for span in spans:
        level, parent = 0, span["parent"]
        while parent is not None:
            level += 1
            parent = spans[parent]["parent"]
        depth.append(level)
    edges = sorted({t for span in spans for t in (span["start"], span["end"])})
    result = [0.0] * len(spans)
    for low, high in zip(edges, edges[1:]):
        owner = max(
            (
                index
                for index, span in enumerate(spans)
                if span["start"] <= low and span["end"] >= high
            ),
            key=lambda index: (depth[index], spans[index]["start"]),
            default=None,
        )
        if owner is not None:
            result[owner] += high - low
    return result


def program_spans(trace_dict: Dict[str, Any]) -> List[Dict[str, Any]]:
    """A program trace (``export_trace`` / ``GET /v1/traces``) as spans
    with ``start``/``end`` seconds and list-index parents."""
    raw = trace_dict.get("spans", [])
    index_of = {span["span_id"]: i for i, span in enumerate(raw)}
    return [
        {
            "name": span["name"],
            "start": span["start_s"],
            "end": span["start_s"] + span["duration_s"],
            "parent": index_of.get(span["parent_id"]),
            "tags": span.get("tags", {}),
        }
        for span in raw
    ]


#: Layer a program span's self time is booked to (phase tag first).
PHASE_LAYERS = {"OR": "or", "CR": "cr", "ED": "ed", "RT": "rt"}
NAME_LAYERS = {
    "http.link": "http",
    "service.request": "service",
    "frontend.queue": "queue",
    "frontend.fuse": "queue",
    "frontend.dispatch": "ipc",
    "worker.link": "worker",
}


def layer_of(span: Dict[str, Any]) -> str:
    phase = span.get("tags", {}).get("phase")
    if phase in PHASE_LAYERS:
        return PHASE_LAYERS[phase]
    return NAME_LAYERS.get(span["name"], "other")


def layer_self_times(trace_dict: Dict[str, Any]) -> Dict[str, float]:
    """Seconds of self time per layer in one program trace."""
    spans = program_spans(trace_dict)
    totals: Dict[str, float] = {}
    for span, seconds in zip(spans, self_times(spans)):
        layer = layer_of(span)
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


# -- memory ----------------------------------------------------------------------


def _children_of(pid: int) -> List[int]:
    found = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.split("/")[2]))
    return found


def pss_mb(pid: int) -> float:
    """PSS of ``pid`` and all its descendants, in MB."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/smaps_rollup", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
        pending.extend(_children_of(current))
    return total_kb / 1024.0


# -- environment stamp -------------------------------------------------------------


def _blas_threads() -> Optional[int]:
    import numpy

    # numpy's own bundled copy first: that is the one doing its GEMMs.
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    candidates = glob.glob(os.path.join(site, "numpy.libs", "*openblas*")) + glob.glob(
        os.path.join(site, "*openblas*", "lib", "*.so*")
    )
    for library in candidates:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment(seed: int, fingerprint: str, digest: str) -> Dict[str, Any]:
    """What a result must carry so results from different machines or
    models are never compared silently."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "source_sha256": digest,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "seed": seed,
        "preset": "hospital-x-like/default",
        "model_fingerprint": fingerprint,
    }
