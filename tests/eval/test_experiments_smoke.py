"""Smoke tests: every experiment runner executes end-to-end at TINY
scale and returns structurally complete results.

These protect the benchmark harness — a benchmark that crashes after
twenty minutes of training is found here in seconds instead.
"""

import pytest

from repro.engine import compile as compile_module
from repro.eval.experiments import TINY
from repro.eval.experiments.fig5_tuning import run_vary_beta, run_vary_k
from repro.eval.experiments.fig6_architecture import average_drop
from repro.eval.experiments.fig6_architecture import run as run_fig6
from repro.eval.experiments.fig7_overall import run as run_fig7
from repro.eval.experiments.fig8_pretraining import pretraining_gap
from repro.eval.experiments.fig8_pretraining import run as run_fig8
from repro.eval.experiments.fig10_feedback import run as run_fig10
from repro.eval.experiments.fig11_online_time import (
    run_vary_k as run_fig11_k,
    run_vary_query_length as run_fig11_q,
)
from repro.eval.experiments.fig12_training_time import (
    run_pretraining_time,
    run_refinement_time,
)
from repro.eval.experiments.fig13_robustness import (
    run_vary_concepts,
    run_vary_unlabeled,
)
from repro.eval.experiments.mp_load import run_mp_load
from repro.eval.experiments.obs_overhead import run_obs_overhead_mp

DATASET = ("hospital-x-like",)


@pytest.mark.slow
class TestExperimentSmoke:
    def test_fig5a(self):
        results = run_vary_k(scale=TINY, seed=1, k_grid=(5, 10), verbose=False)
        assert results["k"] == [5, 10]
        assert len(results["cov"]) == 2 and len(results["acc"]) == 2

    def test_fig5b(self):
        results = run_vary_beta(
            scale=TINY, seed=1, beta_grid=(1, 2), datasets=DATASET, verbose=False
        )
        assert results["hospital-x-like"]["beta"] == [1, 2]

    def test_fig6(self):
        results = run_fig6(
            scale=TINY, seed=1, datasets=DATASET, dim_grid=(8,), verbose=False
        )
        per_variant = results["hospital-x-like"]
        assert set(per_variant) == {
            "COM-AID", "COM-AID-c", "COM-AID-w", "COM-AID-wc",
        }
        assert isinstance(average_drop(results, "COM-AID-wc"), float)

    def test_fig7(self):
        results = run_fig7(
            scale=TINY,
            seed=1,
            datasets=DATASET,
            theta_grid=(0.3,),
            verbose=False,
        )
        methods = [row.method for row in results["hospital-x-like"]]
        assert "NCL" in methods and "NC" in methods and "LR+" in methods
        assert any(method.startswith("pkduck") for method in methods)
        assert any(method.startswith("WMD") for method in methods)
        assert any(method.startswith("Doc2Vec") for method in methods)

    def test_fig8(self):
        results = run_fig8(
            scale=TINY, seed=1, datasets=DATASET, dim_grid=(8,), verbose=False
        )
        assert isinstance(pretraining_gap(results), float)

    def test_fig10(self):
        results = run_fig10(
            scale=TINY, seed=1, n_feedbacks=1, retrain_epochs=1, verbose=False
        )
        assert len(results["steps"]) == 1

    def test_fig11(self):
        k_results = run_fig11_k(
            scale=TINY, seed=1, k_grid=(3, 6), queries_per_point=5,
            datasets=DATASET, verbose=False,
        )
        per_k = k_results["hospital-x-like"]
        assert set(per_k) == {3, 6}
        assert all("total" in values for values in per_k.values())
        q_results = run_fig11_q(
            scale=TINY, seed=1, length_grid=(1, 3), queries_per_point=5,
            datasets=DATASET, verbose=False,
        )
        assert q_results["hospital-x-like"]

    def test_fig12(self):
        pre = run_pretraining_time(
            scale=TINY, seed=1, fractions=(0.5, 1.0), datasets=DATASET,
            verbose=False,
        )
        assert len(pre["hospital-x-like"]["seconds"]) == 2
        refine = run_refinement_time(
            scale=TINY, seed=1, fractions=(0.5, 1.0), datasets=DATASET,
            verbose=False,
        )
        assert len(refine["hospital-x-like"]["seconds"]) == 2

    def test_fig13(self):
        concepts = run_vary_concepts(
            scale=TINY, seed=1, fractions=(0.5, 1.0), datasets=DATASET,
            queries_per_point=10, verbose=False,
        )
        assert len(concepts["hospital-x-like"]["acc"]) == 2
        unlabeled = run_vary_unlabeled(
            scale=TINY, seed=1, fractions=(0.5, 1.0), datasets=DATASET,
            verbose=False,
        )
        assert len(unlabeled["hospital-x-like"]["acc"]) == 2



@pytest.mark.slow
class TestMultiProcessRunnersEncodeOnce:
    """The multi-process runners serve their workers from the artifact
    the pipeline's linker already built in memory: each run encodes
    the ontology once, not once more for the workers."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda directory: run_mp_load(
                scale=TINY, seed=1, clients=1, duration_s=0.2,
                worker_counts=(1,), artifact_dir=directory, verbose=False,
            ),
            lambda directory: run_obs_overhead_mp(
                scale=TINY, seed=1, queries_per_trial=2, trials=1,
                workers=1, artifact_dir=directory, verbose=False,
            ),
        ],
        ids=["mp_load", "obs_overhead_mp"],
    )
    def test_one_artifact_build_per_run(self, run, tmp_path, monkeypatch):
        builds = []
        build_artifact = compile_module.build_artifact

        def counting(*args, **kwargs):
            builds.append(args)
            return build_artifact(*args, **kwargs)

        monkeypatch.setattr(compile_module, "build_artifact", counting)
        run(str(tmp_path / "artifact"))
        assert len(builds) == 1
