"""Engine-test fixtures: one trained model and one compiled artifact.

Training and compilation are the expensive parts, so both are
package-scoped; tests that need to mutate an artifact copy it first.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ComAidConfig, LinkerConfig, TrainingConfig
from repro.core.linker import NeuralConceptLinker
from repro.core.persistence import write_manifest
from repro.core.trainer import ComAidTrainer
from repro.engine.compile import compile_artifact, load_artifact

from tests.serving.conftest import build_figure1_ontology, build_figure3_kb

#: Query mix covering exact aliases, shared-word families, and typos.
ENGINE_QUERIES = [
    "ckd stage 5",
    "anemia blood loss",
    "vitamin c deficiency anemia",
    "protein deficiency anemia",
    "acute abdomen pain",
    "chronic kidney disease",
    "scorbutic anemia",
    "end stage renal disease",
    "anemia",
    "qqqqq zzzzz",
]


@pytest.fixture(scope="package")
def engine_stack(tmp_path_factory):
    """``(ontology, kb, model, artifact_dir)`` shared by the engine tests."""
    ontology = build_figure1_ontology()
    kb = build_figure3_kb(ontology)
    trainer = ComAidTrainer(
        ComAidConfig(dim=10, beta=2),
        TrainingConfig(
            epochs=8, batch_size=4, optimizer="adagrad", learning_rate=0.2
        ),
        rng=7,
    )
    model = trainer.fit(kb)
    artifact_dir = tmp_path_factory.mktemp("engine") / "artifact"
    compile_artifact(artifact_dir, model, ontology, kb=kb)
    return ontology, kb, model, artifact_dir


def make_engine_linker(engine_stack):
    """A ``k=5`` linker served by a concept engine over the artifact."""
    ontology, kb, model, artifact_dir = engine_stack
    return NeuralConceptLinker(
        model,
        ontology,
        LinkerConfig(k=5, artifact_dir=str(artifact_dir)),
        kb=kb,
    )


@pytest.fixture(scope="package")
def artifact(engine_stack):
    """The compiled artifact, loaded once with the model check on."""
    _, _, model, artifact_dir = engine_stack
    return load_artifact(artifact_dir, model=model)


def write_legacy_artifact(src: Path, dest: Path, fmt: int) -> Path:
    """Down-convert a compiled artifact to the pre-slab on-disk layout.

    Writes ``dest`` exactly as a format-``fmt`` (1 or 2) build would
    have: compressed ``encodings.npz``/``structure.npz`` instead of
    ``slab.bin``, no ``slab`` header section, and a matching manifest.
    The refusal tests need real old-layout directories, not a format
    number edited onto a new-layout copy.
    """
    assert fmt in (1, 2)
    loaded = load_artifact(src, verify=False)
    shutil.copytree(src, dest)
    (dest / "slab.bin").unlink()
    np.savez_compressed(
        dest / "encodings.npz",
        final_h=np.asarray(loaded.final_h),
        final_c=np.asarray(loaded.final_c),
        states=np.asarray(loaded.states),
        state_offsets=np.asarray(loaded.state_offsets),
        word_ids=np.asarray(loaded.word_ids),
        word_offsets=np.asarray(loaded.word_offsets),
    )
    if loaded.structure is not None:
        np.savez_compressed(
            dest / "structure.npz", structure=np.asarray(loaded.structure)
        )
    header_path = dest / "artifact.json"
    header = json.loads(header_path.read_text(encoding="utf-8"))
    header["format"] = fmt
    header.pop("slab", None)
    if fmt < 2:
        header.pop("retrieval", None)
        for name in ("index_sparse.npz", "index_dense.npz"):
            (dest / name).unlink(missing_ok=True)
    header_path.write_text(
        json.dumps(header, indent=2, sort_keys=True), encoding="utf-8"
    )
    (dest / "manifest.json").unlink()
    write_manifest(dest, fmt)
    return dest
