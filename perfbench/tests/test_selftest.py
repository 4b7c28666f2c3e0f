"""Self-tests: the benchmark can fail.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The module builds a tiny model (a few seconds of training) in a
temporary directory and drives the backlog workload's own functions
against it, so it needs no cached build.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

if not common.source_present():
    pytest.skip("no src/repro in this checkout", allow_module_level=True)
common.use_checkout_source()

import backlog  # noqa: E402
import build  # noqa: E402
from repro.utils.faults import FaultSpec, fault_injection  # noqa: E402

#: Added to every batched decode by the fault drill.
DELAY_S = 0.002


def _cli(*args: str, cwd: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, check=True, stdout=subprocess.DEVNULL, timeout=300,
    )


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    _cli("generate", "--dataset", "hospital-x-like", "--out", "data",
         "--seed", "7", "--queries", "48", cwd=root)
    _cli("train", "--data", "data", "--out", "model", "--dim", "10",
         "--epochs", "2", "--cbow-epochs", "3", "--seed", "4", cwd=root)
    _cli("compile", "--model", "model", "--out", "artifact", cwd=root)
    texts, _ = build.load_queries(root)
    _, reference = build.reference_rankings(root, texts)
    return root, texts, reference


def _queries_per_s(outcome) -> float:
    return outcome["queries_ok"] / outcome["window_s"]


def test_clean_run_matches_reference(tiny):
    root, texts, reference = tiny
    outcome = backlog.run(root, texts, reference, seed=1, seconds=1.0, traced=False)
    assert outcome["attempted"] > 0
    assert outcome["failed"] == 0


def test_ed_delay_is_flagged_and_lands_in_ed_self_time(tiny):
    root, texts, reference = tiny
    clean = backlog.run(root, texts, reference, seed=1, seconds=2.0, traced=True)
    site = {"linker.phase2.batch": FaultSpec(action="delay", delay_s=DELAY_S, times=-1)}
    with fault_injection(site) as plan:
        slow = backlog.run(root, texts, reference, seed=1, seconds=2.0, traced=True)
    assert plan.fired("linker.phase2.batch") > 0
    assert slow["failed"] == 0
    assert _queries_per_s(slow) < 0.8 * _queries_per_s(clean)
    # Each query of a batch decodes once, so a batch carries up to
    # BATCH delays; the traced half must book them to ED self time.
    clean_ed = clean["trace_metrics"]["trace.ed_self_ms"]
    slow_ed = slow["trace_metrics"]["trace.ed_self_ms"]
    added = slow_ed - clean_ed
    assert added > 0.5 * DELAY_S * 1000.0 * backlog.BATCH
    for layer in ("or", "cr", "rt", "other"):
        grown = (
            slow["trace_metrics"][f"trace.{layer}_self_ms"]
            - clean["trace_metrics"][f"trace.{layer}_self_ms"]
        )
        assert grown < 0.2 * added, layer


def test_corrupted_reference_counts_as_failures(tiny):
    root, texts, reference = tiny
    corrupted = dict(reference)
    index = next(i for i, ranking in reference.items() if len(ranking) >= 2)
    first, second, *rest = reference[index]
    corrupted[index] = [second, first, *rest]
    outcome = backlog.run(root, texts, corrupted, seed=1, seconds=1.0, traced=False)
    assert outcome["failed"] > 0


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "backlog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    assert common.tail_percentile(400) == 0.95
    assert common.tail_percentile(1000) == 0.99
    assert common.tail_percentile(150) == 0.9
    for count in (20, 100, 400, 1000, 20000):
        assert count * (1.0 - common.tail_percentile(count)) >= 10.0 - 1e-9


def test_self_times_partition_a_trace_with_overlapping_children():
    spans = [
        {"start": 0.0, "end": 10.0, "parent": None},
        {"start": 1.0, "end": 6.0, "parent": 0},
        {"start": 4.0, "end": 8.0, "parent": 0},
        {"start": 2.0, "end": 3.0, "parent": 1},
    ]
    times = common.self_times(spans)
    assert sum(times) == pytest.approx(10.0)
    # 4-6 is covered by both children; it goes to the later-started one.
    assert times == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_ranking_match_tolerance():
    reference = [("a", -1.0), ("b", -2.0)]
    assert common.ranking_matches([("a", -1.0 + 1e-10), ("b", -2.0)], reference)
    assert not common.ranking_matches([("a", -1.0 + 1e-6), ("b", -2.0)], reference)
    assert not common.ranking_matches([("b", -2.0), ("a", -1.0)], reference)
    assert not common.ranking_matches([("a", None), ("b", -2.0)], reference)
