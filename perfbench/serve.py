"""The two HTTP workloads: ``interactive`` and ``burst``.

Both spawn ``repro serve`` from this checkout against the cached
artifact and drive ``POST /v1/link`` with an open-loop generator: one
process, at most ``nproc`` keep-alive connections, Poisson arrivals at a
fixed rate.  A request is timed from its scheduled send time until its
response body is fully read, so a stall also charges the requests queued
behind it.  The server keeps every shipped default (including
``trace_sample_rate=1.0``) except the worker count.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common


@dataclass(frozen=True)
class ServerWorkload:
    name: str
    workers: int
    #: Requests per second (Poisson arrivals).
    rate: float
    #: Query counts per request; a balanced mix, shuffled by seed.
    sizes: Tuple[int, ...]
    #: Latency limit for ``slo_attainment``.
    slo_ms: float
    #: Whether the client ACKs responses at once (see ``drive``).
    quick_ack: bool = False


WORKLOADS = {
    # A coder looking up one diagnosis at a time on the threaded tier.
    # At 8 req/s about a fifth of the responses stall on a delayed ACK
    # (see make_schedule), so p50 sits in the fast mode and the tail in
    # the stalled one; near 20 req/s about half stall and the median
    # flips between the two modes from run to run.
    "interactive": ServerWorkload("interactive", 0, 8.0, (1,), 150.0),
    # Notes with 1-8 diagnoses each on the multi-process tier (2 workers).
    # 6 req/s is ~27 queries/s, well below the ~125 queries/s knee.  The
    # client ACKs at once: with delayed ACKs some runs fell into a regime
    # where most responses stalled (p50 88 ms against ~25 ms), burying
    # the worker tier's own layers; interactive measures that stall.
    "burst": ServerWorkload("burst", 2, 6.0, tuple(range(1, 9)), 250.0, True),
}

#: Server set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Seconds of traffic at the workload's rate before the timed window.
WARM_S = 3.0


# -- server process ------------------------------------------------------------


class Server:
    """One ``repro serve`` process (and its workers) on an ephemeral port."""

    def __init__(self, build: Path, workers: int, log: Path) -> None:
        self.build = build
        self.workers = workers
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.load_s = 0.0
        self.ready_s = 0.0

    def start(self) -> "Server":
        started = time.perf_counter()
        self.log.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--model", str(self.build / "model"),
                    "--artifact-dir", str(self.build / "artifact"),
                    "--port", "0",
                    "--workers", str(self.workers),
                ],
                cwd=common.ROOT,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                start_new_session=True,
            )
        banner = self.proc.stdout.readline()
        if "serving on http://" not in banner:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.load_s = time.perf_counter() - started
        self.port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = started + 120.0
        while time.perf_counter() < deadline:
            status, _ = self.get("/readyz")
            if status == 200:
                self.ready_s = time.perf_counter() - started
                return self
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("repro serve never became ready")

    def get(self, path: str) -> Tuple[Optional[int], bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            return None, b""
        finally:
            conn.close()

    def metrics(self) -> Dict[str, Any]:
        status, body = self.get("/v1/metrics")
        if status != 200:
            raise RuntimeError(f"GET /v1/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=20)
        try:
            # Forked workers share the server's session; none may outlive it.
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.stdout.close()


# -- open-loop generator ---------------------------------------------------------------


@dataclass
class Sent:
    """One request's schedule, timings (perf_counter s) and answer."""

    due: float
    conn: int
    queries: List[int]
    request_id: str
    free_at: float = 0.0
    sent: float = 0.0
    end: float = 0.0
    status: Optional[int] = None
    body: bytes = b""


def make_schedule(
    workload: ServerWorkload,
    seed: int,
    seconds: float,
    n_queries: int,
    conns: int,
    tag: str,
) -> List[Sent]:
    """Seeded open-loop schedule: one Poisson stream per connection.

    Each connection is one user on one keep-alive connection, issuing
    requests at ``rate / conns``; merged, the arrivals are Poisson at
    ``rate``.  Gaps are exponential, drawn by stratified inverse-CDF
    sampling and shuffled, so every seed gets nearly the same gaps in a
    different order.  This matters here: the server writes headers and
    body separately with Nagle on, so a response stalls ~40 ms when the
    client's kernel delays its ACK, which it does after a short gap on
    that connection.  With independent draws and whichever-is-free
    dispatch, the share of stalled responses swings from run to run.
    Counts are fixed, so every seed offers the same work; query indices
    walk seeded permutations of the whole query set, so a run that sends
    at least ``n_queries`` queries covers every query.
    """
    rng = random.Random(f"{workload.name}/{seed}/{tag}")
    count = max(conns, round(workload.rate * seconds))
    slots = []
    for conn in range(conns):
        share = count // conns + (1 if conn < count % conns else 0)
        gaps = [-math.log(1.0 - (i + rng.random()) / share) for i in range(share)]
        rng.shuffle(gaps)
        scale = seconds / (sum(gaps) + 1.0)
        clock = 0.0
        for gap in gaps:
            clock += gap * scale
            slots.append((clock, conn))
    slots.sort()
    sizes = [workload.sizes[i % len(workload.sizes)] for i in range(count)]
    rng.shuffle(sizes)
    order: List[int] = []
    while len(order) < sum(sizes):
        cycle = list(range(n_queries))
        rng.shuffle(cycle)
        order.extend(cycle)
    requests, cursor = [], 0
    for i, ((offset, conn), size) in enumerate(zip(slots, sizes)):
        requests.append(
            Sent(offset, conn, order[cursor : cursor + size], f"{tag}-{seed}-{i}")
        )
        cursor += size
    return requests


def drive(
    port: int,
    requests: List[Sent],
    texts: Sequence[str],
    conns: int,
    quick_ack: bool = False,
) -> float:
    """Send ``requests`` on schedule, each on its own connection's thread.

    With ``quick_ack`` the client sets ``TCP_QUICKACK`` before reading
    each response, so the server's body write is never held (Nagle)
    waiting for a delayed ACK of its header write.

    Returns the perf_counter origin the ``due`` offsets were added to
    (``due`` becomes absolute).
    """
    quick_ack_option = getattr(socket, "TCP_QUICKACK", None) if quick_ack else None
    origin = time.perf_counter() + 0.05
    for request in requests:
        request.due += origin

    def sender(mine: List[Sent]) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        for request in mine:
            body = json.dumps({"queries": [texts[i] for i in request.queries]})
            request.free_at = time.perf_counter()
            if request.due > request.free_at:
                time.sleep(request.due - request.free_at)
            request.sent = time.perf_counter()
            try:
                conn.request(
                    "POST",
                    "/v1/link",
                    body=body.encode("utf-8"),
                    headers={
                        "Content-Type": "application/json",
                        "X-Request-ID": request.request_id,
                    },
                )
                if quick_ack_option is not None:
                    conn.sock.setsockopt(socket.IPPROTO_TCP, quick_ack_option, 1)
                response = conn.getresponse()
                request.body = response.read()
                request.status = response.status
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            request.end = time.perf_counter()
        conn.close()

    threads = [
        threading.Thread(target=sender, args=([r for r in requests if r.conn == c],))
        for c in range(conns)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return origin


class TracePoller:
    """Collects the server's span trees from ``GET /v1/traces`` while a
    traced half runs (the ring buffer holds only the latest few)."""

    def __init__(self, server: Server, interval_s: float = 0.5) -> None:
        self.server = server
        self.interval_s = interval_s
        self.traces: Dict[str, Dict[str, Any]] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run)

    def _poll(self) -> None:
        status, body = self.server.get("/v1/traces")
        if status == 200:
            for trace_dict in json.loads(body)["traces"]:
                self.traces.setdefault(trace_dict["request_id"], trace_dict)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._poll()

    def __enter__(self) -> "TracePoller":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()
        self._poll()


# -- analysis ----------------------------------------------------------------------


def _hist(before: Dict[str, Any], after: Dict[str, Any], name: str) -> Tuple[float, int]:
    """(Δsum, Δcount) of a ``/v1/metrics`` histogram."""
    old = before.get("histograms", {}).get(name, {"sum": 0.0, "count": 0})
    new = after.get("histograms", {}).get(name, {"sum": 0.0, "count": 0})
    return new["sum"] - old["sum"], new["count"] - old["count"]


def _hist_mean(before, after, name: str) -> float:
    total, count = _hist(before, after, name)
    return total / count if count else 0.0


def _counter(before, after, name: str) -> int:
    return after.get("counters", {}).get(name, 0) - before.get("counters", {}).get(name, 0)


def check(
    requests: Sequence[Sent],
    reference: Dict[int, common.Ranking],
    slo_ms: float,
) -> Dict[str, Any]:
    """Correctness and latency of every request sent."""
    failed = slo_ok = queries_ok = 0
    first_hits: Dict[int, common.Ranking] = {}
    results_per_request: List[Optional[List[Dict[str, Any]]]] = []
    for request in requests:
        results = None
        ok = request.status == 200
        if ok:
            results = json.loads(request.body)["results"]
            for index, result in zip(request.queries, results):
                ranking = [(c["cid"], c["log_prob"]) for c in result["ranked"]]
                if result["degraded"] or not common.ranking_matches(
                    ranking, reference[index]
                ):
                    ok = False
                first_hits.setdefault(index, ranking)
            ok = ok and len(results) == len(request.queries)
        for index in request.queries:
            first_hits.setdefault(index, [])
        results_per_request.append(results)
        if ok:
            queries_ok += len(request.queries)
            if (request.end - request.due) * 1000.0 <= slo_ms:
                slo_ok += 1
        else:
            failed += 1
    return {
        "failed": failed,
        "slo_ok": slo_ok,
        "queries_ok": queries_ok,
        "first_hits": first_hits,
        "results": results_per_request,
    }


def layers(
    workload: ServerWorkload,
    requests: Sequence[Sent],
    results: Sequence[Optional[List[Dict[str, Any]]]],
    before: Dict[str, Any],
    after: Dict[str, Any],
) -> Tuple[Dict[str, float], List[Tuple[str, float, bool]]]:
    """Per-layer means and the per-request layer accounting (ms)."""
    answered = [
        (request, result)
        for request, result in zip(requests, results)
        if result is not None
    ]
    per_query = [item for _, result in answered for item in result]
    phases = {
        phase: 1000.0 * common.mean(r["timing"].get(phase, 0.0) for r in per_query)
        for phase in ("OR", "CR", "ED", "RT")
    }
    phase_total = sum(phases.values())
    queries_per_request = common.mean(len(result) for _, result in answered)
    rtt_ms = 1000.0 * common.mean(r.end - r.sent for r in requests)
    request_ms = 1000.0 * _hist_mean(before, after, "request_seconds")
    conn_wait_ms = 1000.0 * common.mean(max(r.free_at - r.due, 0.0) for r in requests)
    lateness = [
        1000.0 * (r.sent - max(r.due, r.free_at)) for r in requests
    ]
    metrics = {
            "server.http_ms": rtt_ms - request_ms,
            "client.conn_wait_ms": conn_wait_ms,
            "linker.or_ms": phases["OR"],
            "linker.cr_ms": phases["CR"],
            "linker.ed_ms": phases["ED"],
            "linker.rt_ms": phases["RT"],
            "linker.ed_share": phases["ED"] / phase_total if phase_total else 0.0,
            "linker.candidates_per_query": common.mean(
                len(r["ranked"]) for r in per_query
            ),
            "rewriter.rewrites_per_query": common.mean(
                len(r["rewrites"]) for r in per_query
            ),
            "loadgen.lateness_p99_ms": common.percentile(lateness, 0.99),
    }
    accounting = [
        ("client.conn_wait_ms", conn_wait_ms, True),
        ("loadgen.lateness_ms", common.mean(lateness), True),
        ("server.http_ms", metrics["server.http_ms"], True),
    ]
    if workload.workers == 0:
        metrics["batcher.wait_ms"] = request_ms - phase_total * queries_per_request
        metrics["batcher.batch_size"] = _hist_mean(before, after, "batch_size")
        accounting.append(("batcher.wait_ms", metrics["batcher.wait_ms"], True))
        for phase in ("OR", "CR", "ED", "RT"):
            accounting.append(
                (f"linker.{phase.lower()}_ms x queries/request",
                 phases[phase] * queries_per_request, True)
            )
    else:
        queue_ms = 1000.0 * _hist_mean(before, after, "frontend.queue_wait_seconds")
        decode_ms = 1000.0 * _hist_mean(before, after, "frontend.worker_decode_seconds")
        metrics.update(
            {
                "frontend.queue_wait_ms": queue_ms,
                "frontend.queue_wait_p99_ms": 1000.0
                * after["histograms"]
                .get("frontend.queue_wait_seconds", {})
                .get("p99", 0.0),
                "frontend.fused_batch_size": _hist_mean(
                    before, after, "frontend.fused_batch_size"
                ),
                "frontend.shed_share": _counter(before, after, "requests_shed")
                / len(requests),
                "procpool.decode_ms": decode_ms,
                "procpool.ipc_ms": request_ms - queue_ms - decode_ms,
            }
        )
        accounting += [
            ("frontend.queue_wait_ms", queue_ms, True),
            ("procpool.decode_ms", decode_ms, True),
            ("procpool.ipc_ms", metrics["procpool.ipc_ms"], True),
        ]
        for phase in ("OR", "CR", "ED", "RT"):
            accounting.append(
                (f"  (in decode) linker.{phase.lower()}_ms x queries/request",
                 phases[phase] * queries_per_request, False)
            )
    return metrics, accounting


def trace_layers(
    requests: Sequence[Sent], traces: Dict[str, Dict[str, Any]], spans: common.SpanRecorder
) -> Dict[str, float]:
    """Mean self time per layer per request, from client spans joined by
    ``X-Request-ID`` to the server's own span trees."""
    totals: Dict[str, float] = {}
    joined = rows = candidates = decodes = 0
    for request in requests:
        spans.add("client.wait", request.request_id, request.due, request.sent)
        spans.add(
            "client.request", request.request_id, request.sent, request.end,
            status=request.status,
        )
        trace_dict = traces.get(request.request_id)
        if trace_dict is None:
            continue
        joined += 1
        root = next(
            (s for s in trace_dict["spans"] if s["parent_id"] is None), None
        )
        client_self = (request.end - request.sent) - (root["duration_s"] if root else 0.0)
        totals["client"] = totals.get("client", 0.0) + client_self
        for layer, seconds in common.layer_self_times(trace_dict).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        for span in trace_dict["spans"]:
            if span["name"] == "linker.phase2.decode":
                decodes += 1
                rows += span["tags"].get("batch", 0)
            elif span["name"] == "linker.retrieve":
                candidates += span["tags"].get("candidates", 0)
    result = {
        f"trace.{layer}_self_ms": 1000.0 * seconds / joined
        for layer, seconds in totals.items()
    }
    result["trace.joined_share"] = joined / len(requests)
    result["ed.rows_per_call"] = rows / decodes if decodes else 0.0
    result["ed.scored_share"] = rows / candidates if candidates else 0.0
    return result


# -- the workload ------------------------------------------------------------------


def run(
    workload_name: str,
    build: Path,
    texts: Sequence[str],
    reference: Dict[int, common.Ranking],
    seed: int,
    seconds: float,
    traced: bool,
) -> Dict[str, Any]:
    workload = WORKLOADS[workload_name]
    conns = min(2, len(os.sched_getaffinity(0)))
    log = common.OUT_DIR / f"server-{workload.name}-{seed}.log"
    setups: List[Tuple[float, float]] = []
    server: Optional[Server] = None
    try:
        for attempt in range(SETUPS):
            server = Server(build, workload.workers, log).start()
            setups.append((server.load_s, server.ready_s))
            if attempt < SETUPS - 1:
                server.stop()
        # Warm the connections, workers and allocator before the window.
        warm = make_schedule(workload, seed, WARM_S, len(texts), conns, "warm")
        drive(server.port, warm, texts, conns, workload.quick_ack)
        halves = [("untraced", seconds / 2), ("traced", seconds / 2)] if traced else [
            ("untraced", seconds)
        ]
        outcome: Dict[str, Any] = {}
        for tag, span_s in halves:
            requests = make_schedule(workload, seed, span_s, len(texts), conns, tag)
            before = server.metrics()
            recorder = common.SpanRecorder()
            if tag == "traced":
                with TracePoller(server) as poller:
                    origin = drive(
                        server.port, requests, texts, conns, workload.quick_ack
                    )
                trace_metrics = trace_layers(requests, poller.traces, recorder)
                recorder.dump(
                    common.OUT_DIR / f"spans-{workload.name}-{seed}.json",
                    {"server_traces": list(poller.traces.values())},
                )
            else:
                origin = drive(server.port, requests, texts, conns, workload.quick_ack)
            after = server.metrics()
            checked = check(requests, reference, workload.slo_ms)
            latencies = [1000.0 * (r.end - r.due) for r in requests]
            if tag == "traced":
                outcome["trace.overhead_ms"] = (
                    statistics.median(latencies) - outcome["p50_untraced"]
                )
                outcome["trace_metrics"] = trace_metrics
                outcome["extra_attempted"] += len(requests)
                outcome["extra_failed"] += checked["failed"]
                continue
            # Queries the window did not reach are linked afterwards (not
            # timed), so accuracy and the reference check cover the whole
            # set on every seed.
            missing = [i for i in range(len(texts)) if i not in checked["first_hits"]]
            sweep = [
                Sent(0.0, 0, missing[i : i + 8], f"sweep-{seed}-{i}")
                for i in range(0, len(missing), 8)
            ]
            drive(server.port, sweep, texts, 1)
            swept = check(sweep, reference, workload.slo_ms)
            checked["first_hits"].update(swept["first_hits"])
            outcome["extra_attempted"] = len(sweep)
            outcome["extra_failed"] = swept["failed"]
            layer_metrics, accounting = layers(
                workload, requests, checked["results"], before, after
            )
            outcome.update(
                {
                    "attempted": len(requests),
                    "failed": checked["failed"],
                    "latencies_ms": latencies,
                    "p50_untraced": statistics.median(latencies),
                    "slo_ok": checked["slo_ok"],
                    "queries_ok": checked["queries_ok"],
                    "window_s": max(r.end for r in requests) - origin,
                    "first_hits": checked["first_hits"],
                    "layers": layer_metrics,
                    "accounting": accounting,
                    "e2e_mean_ms": common.mean(latencies),
                    "mem_mb": common.pss_mb(server.proc.pid),
                }
            )
        outcome["setup_s"] = statistics.median(ready for _, ready in setups)
        outcome["setup.warm_s"] = statistics.median(ready - load for load, ready in setups)
        outcome["workload"] = {
            "tier": "threaded" if workload.workers == 0 else f"{workload.workers} workers",
            "rate_per_s": workload.rate,
            "connections": conns,
            "slo_ms": workload.slo_ms,
            "unit": "request",
        }
        return outcome
    finally:
        if server is not None:
            server.stop()
