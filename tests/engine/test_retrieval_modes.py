"""Engine retrieval modes: exact bit-identity, compiled indexes, format gate."""

import json
import shutil

import pytest

from repro.core.persistence import write_manifest
from repro.engine.compile import (
    ARTIFACT_FILE,
    SPARSE_INDEX_FILE,
    compile_artifact,
    load_artifact,
)
from repro.engine.concept_engine import ConceptEngine
from repro.text.tfidf import TfIdfIndex
from repro.text.tokenize import tokenize
from repro.utils.errors import ConfigurationError, DataError

from tests.engine.conftest import ENGINE_QUERIES, write_legacy_artifact


@pytest.fixture(scope="module")
def indexed_stack(engine_stack, tmp_path_factory):
    """The engine fixture's model compiled *with* both retrieval indexes."""
    ontology, kb, model, _ = engine_stack
    directory = tmp_path_factory.mktemp("retrieval") / "artifact"
    compile_artifact(
        directory, model, ontology, kb=kb, index="both", index_seed=3
    )
    artifact = load_artifact(directory, model=model)
    return ontology, kb, model, directory, artifact


def make_engine(stack, mode):
    ontology, _, model, _, artifact = stack
    return ConceptEngine(model, ontology, artifact, retrieval_mode=mode)


class TestCompiledIndexes:
    def test_format_3_header_and_checksums(self, indexed_stack):
        _, _, _, directory, artifact = indexed_stack
        assert artifact.format == 3
        assert artifact.sparse_index is not None
        assert artifact.dense_index is not None
        assert set(artifact.retrieval_meta) == {"sparse", "dense"}
        for entry in artifact.retrieval_meta.values():
            assert len(entry["sha256"]) == 64
            assert (directory / entry["file"]).exists()

    def test_sparse_index_covers_artifact_order(self, indexed_stack):
        _, _, _, _, artifact = indexed_stack
        assert artifact.sparse_index.keys == list(artifact.cids)
        assert len(artifact.dense_index) == len(artifact.cids)

    def test_unindexed_artifact_has_no_indexes(self, artifact):
        assert artifact.sparse_index is None
        assert artifact.dense_index is None
        assert artifact.retrieval_meta == {}

    def test_swapped_index_file_is_rejected(self, indexed_stack, tmp_path):
        """The header's per-index sha256 catches an index swapped in
        even when the manifest has been regenerated to match."""
        _, _, model, directory, _ = indexed_stack
        clone = tmp_path / "tampered"
        shutil.copytree(directory, clone)
        payload = (clone / SPARSE_INDEX_FILE).read_bytes()
        (clone / SPARSE_INDEX_FILE).write_bytes(payload + b"\0")
        (clone / "manifest.json").unlink()  # regenerate, don't self-checksum
        write_manifest(clone, 3)
        with pytest.raises(DataError, match="sha256"):
            load_artifact(clone, model=model)


class TestEngineModes:
    def test_exact_mode_is_bit_identical_to_the_reference_scan(
        self, indexed_stack
    ):
        """Exact mode over the compiled inverted index answers as the
        pure-Python TF-IDF scan over the artifact's documents."""
        _, _, _, _, artifact = indexed_stack
        reference = TfIdfIndex().fit(artifact.documents)
        exact = make_engine(indexed_stack, "exact")
        assert exact.candidates.index is artifact.sparse_index
        for query in ENGINE_QUERIES:
            tokens = tokenize(query)
            assert exact.retrieve(tokens, 5) == [
                (match.key, match.score)
                for match in reference.search(tokens, k=5)
            ]

    def test_hybrid_returns_indexed_cids(self, indexed_stack):
        _, _, _, _, artifact = indexed_stack
        engine = make_engine(indexed_stack, "hybrid")
        hits = engine.retrieve(tokenize("anemia blood loss"), 5)
        assert hits
        assert all(cid in artifact for cid, _ in hits)
        scores = [score for _, score in hits]
        assert scores == sorted(scores, reverse=True)

    def test_mode_counters(self, indexed_stack):
        engine = make_engine(indexed_stack, "hybrid")
        engine.retrieve(tokenize("anemia"), 3)
        engine.retrieve(tokenize("ckd stage 5"), 3)
        stats = engine.stats()
        assert stats["retrieval_mode"] == "hybrid"
        assert stats["retrievals"] == 2
        # One engine serves one mode, so there is no per-mode map.
        assert "retrievals_by_mode" not in stats

    def test_sparse_falls_back_without_compiled_index(
        self, engine_stack, artifact, indexed_stack
    ):
        """A format-3 artifact compiled with --index none still serves
        exact mode (the engine freezes the inverted index at start),
        ranking as the compiled index does."""
        ontology, _, model, _ = engine_stack
        assert artifact.sparse_index is None
        unindexed = ConceptEngine(model, ontology, artifact)
        compiled = make_engine(indexed_stack, "exact")
        for query in ENGINE_QUERIES:
            tokens = tokenize(query)
            assert unindexed.retrieve(tokens, 5) == (
                compiled.retrieve(tokens, 5)
            )

    def test_dense_without_compiled_index_refuses(self, engine_stack, artifact):
        ontology, _, model, _ = engine_stack
        with pytest.raises(ConfigurationError, match="repro compile"):
            ConceptEngine(model, ontology, artifact, retrieval_mode="hybrid")

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_removed_modes_are_refused_by_name(self, indexed_stack, mode):
        with pytest.raises(ConfigurationError) as info:
            make_engine(indexed_stack, mode)
        assert (
            f"retrieval_mode must be one of ('exact', 'hybrid'), got {mode!r}"
        ) in str(info.value)


class TestUnsupportedFormats:
    @pytest.fixture()
    def format1_dir(self, engine_stack, tmp_path):
        """A pre-retrieval (format-1) artifact, as an old build wrote it."""
        _, _, _, artifact_dir = engine_stack
        return write_legacy_artifact(artifact_dir, tmp_path / "format1", 1)

    def test_unknown_format_rejected(self, engine_stack, format1_dir):
        _, _, model, _ = engine_stack
        header_path = format1_dir / ARTIFACT_FILE
        header = json.loads(header_path.read_text(encoding="utf-8"))
        header["format"] = 99
        header_path.write_text(json.dumps(header), encoding="utf-8")
        (format1_dir / "manifest.json").unlink()
        write_manifest(format1_dir, 99)
        with pytest.raises(DataError, match="format"):
            load_artifact(format1_dir, model=model)
