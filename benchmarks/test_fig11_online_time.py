"""Figure 11 (Appendix B.1) — online linking time analysis.

Paper shapes: total time grows with k and with |q|; the encode-decode
part (ED) dominates; hospital-x is slower than MIMIC-III because its
canonical descriptions are longer.
"""

import pytest

from repro.eval.experiments import SMALL
from repro.eval.experiments.fig11_online_time import (
    run_vary_k,
    run_vary_query_length,
)


@pytest.fixture(scope="module")
def k_results():
    return run_vary_k(scale=SMALL, seed=2018, queries_per_point=40)


def test_fig11ab_time_grows_with_k(once, k_results):
    results = once(lambda: k_results)
    for name, per_k in results.items():
        ks = sorted(per_k)
        totals = [per_k[k]["total"] for k in ks]
        assert totals[-1] > totals[0], f"{name}: {totals}"


def test_fig11_ed_dominates(once, k_results):
    # Register with pytest-benchmark so --benchmark-only
    # does not skip this shape assertion.
    once(lambda: None)
    for name, per_k in k_results.items():
        for k, values in per_k.items():
            assert values["ED"] == max(
                values[phase] for phase in ("OR", "CR", "ED", "RT")
            ), f"{name} k={k}: {values}"


def test_fig11_hospital_slower_than_mimic(once, k_results):
    # Register with pytest-benchmark so --benchmark-only
    # does not skip this shape assertion.
    once(lambda: None)
    # Longer ICD-10-style descriptions cost more to encode/attend over.
    hospital = k_results["hospital-x-like"]
    mimic = k_results["mimic-iii-like"]
    shared = sorted(set(hospital) & set(mimic))
    hospital_mean = sum(hospital[k]["ED"] for k in shared) / len(shared)
    mimic_mean = sum(mimic[k]["ED"] for k in shared) / len(shared)
    assert hospital_mean > mimic_mean


def test_fig11cd_time_grows_with_query_length(once):
    results = once(
        run_vary_query_length, scale=SMALL, seed=2018, queries_per_point=30
    )
    for name, per_length in results.items():
        lengths = sorted(per_length)
        if len(lengths) < 2:
            continue
        first, last = per_length[lengths[0]], per_length[lengths[-1]]
        assert last["total"] > first["total"], f"{name}"
        # ED grows with |q| (more words to decode).
        assert last["ED"] > first["ED"], f"{name}"
