"""Retrieval-at-scale benchmark — the 100k-concept gate.

Runs the exact scan, the inverted sparse index and hybrid fusion over
the ``large-scale-like`` 100k fine-grained ontology, writes
``BENCH_retrieval.json`` at the repo root, and asserts the acceptance
gates: hybrid retrieval at its fixed settings (rrf,
``FUSION_WEIGHT``, ``NPROBE``) must cut the exact scan's CR p50 by ≥5×
while keeping recall@64 ≥ 0.98, and the sparse index must stay
bit-identical to the exact scan on every query and ≥5× faster.
"""

import json
from pathlib import Path

import pytest

from repro.eval.experiments.retrieval_scale import run_retrieval_scale
from repro.retrieval.hybrid import FUSION_WEIGHT, NPROBE

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_retrieval.json"


@pytest.fixture(scope="module")
def report():
    return run_retrieval_scale(scale="large", seed=2018, k=64, query_count=128)


def test_hybrid_speedup_at_least_5x(once, report):
    data = once(lambda: report)
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    assert data["concepts"] >= 100_000, data
    # The gate measures the shipped hybrid settings.
    assert (data["nprobe"], data["fusion_weight"]) == (NPROBE, FUSION_WEIGHT)
    assert data["speedup_p50"]["hybrid"] >= 5.0, data["modes"]


def test_hybrid_recall_at_least_098(once, report):
    once(lambda: None)
    assert report["modes"]["hybrid"]["recall_at_k"] >= 0.98, report["modes"]


def test_sparse_is_bit_identical_and_faster(once, report):
    once(lambda: None)
    assert report["sparse_identical"], report
    assert report["speedup_p50"]["sparse"] >= 5.0, report["modes"]
