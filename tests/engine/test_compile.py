"""The compiled concept artifact: round-trip, integrity, fingerprinting."""

import json
import shutil

import numpy as np
import pytest

from repro.core.comaid import ComAid
from repro.engine.compile import (
    ARTIFACT_FORMAT,
    build_artifact,
    compile_artifact,
    load_artifact,
    model_fingerprint,
    verify_artifact,
)
from repro.ontology.paths import structural_context
from repro.utils.errors import DataError


class TestRoundTrip:
    def test_reload_is_byte_identical(self, engine_stack):
        _, _, model, artifact_dir = engine_stack
        first = load_artifact(artifact_dir, model=model)
        second = load_artifact(artifact_dir, model=model)
        assert first.cids == second.cids
        for name in ("final_h", "final_c", "states", "state_offsets",
                     "word_ids", "word_offsets"):
            np.testing.assert_array_equal(
                getattr(first, name), getattr(second, name), err_msg=name
            )
        np.testing.assert_array_equal(first.structure, second.structure)
        assert first.documents == second.documents
        assert first.fingerprint == second.fingerprint

    def test_in_memory_build_matches_the_disk_build(self, engine_stack,
                                                    tmp_path):
        """``build_artifact`` is ``load_artifact`` after
        ``compile_artifact``, byte for byte, indexes included."""
        ontology, kb, model, _ = engine_stack
        built = build_artifact(model, ontology, kb=kb, index="both")
        directory = compile_artifact(
            tmp_path / "artifact", model, ontology, kb=kb, index="both"
        )
        loaded = load_artifact(directory, model=model)
        assert built.directory is None
        assert built.cids == loaded.cids
        for name in ("final_h", "final_c", "states", "state_offsets",
                     "word_ids", "word_offsets", "structure"):
            mine, theirs = getattr(built, name), getattr(loaded, name)
            assert mine.dtype == theirs.dtype, name
            assert mine.shape == theirs.shape, name
            assert mine.tobytes() == theirs.tobytes(), name
        assert built.documents == loaded.documents
        assert built.corpus_stats == loaded.corpus_stats
        assert built.fingerprint == loaded.fingerprint
        assert built.index_aliases == loaded.index_aliases
        for kind in ("sparse_index", "dense_index"):
            mine = getattr(built, kind).to_arrays()
            theirs = getattr(loaded, kind).to_arrays()
            assert sorted(mine) == sorted(theirs), kind
            for key in mine:
                assert mine[key].tobytes() == theirs[key].tobytes(), (kind, key)

    def test_header_describes_the_model(self, engine_stack, artifact):
        _, _, model, _ = engine_stack
        assert artifact.format == ARTIFACT_FORMAT
        assert artifact.fingerprint == model_fingerprint(model)
        assert len(artifact) == len(artifact.cids) == artifact.final_h.shape[0]
        assert artifact.final_h.shape[1] == model.config.dim
        assert artifact.structure.shape[1:] == (
            model.config.beta, model.config.dim
        )

    def test_encodings_match_a_live_encoder(self, engine_stack, artifact):
        ontology, _, model, _ = engine_stack
        for cid in list(artifact.cids)[:4]:
            concept = ontology.get(cid)
            word_ids = model.words_to_ids(list(concept.words))
            live = model.encode_concept(word_ids, keep_caches=False)
            frozen = artifact.encoding_of(cid)
            assert tuple(frozen.word_ids) == tuple(word_ids)
            np.testing.assert_array_equal(frozen.final_h, live.final_h)
            np.testing.assert_array_equal(frozen.final_c, live.final_c)
            np.testing.assert_array_equal(frozen.states, live.states)

    def test_structure_memories_match_ancestor_encoders(
        self, engine_stack, artifact
    ):
        ontology, _, model, _ = engine_stack
        beta = model.config.beta
        for cid in list(artifact.cids)[:4]:
            path = structural_context(ontology, cid, beta)
            expected = np.vstack([
                model.encode_concept(
                    model.words_to_ids(list(ancestor.words)), keep_caches=False
                ).final_h
                for ancestor in path[1:]
            ])
            np.testing.assert_array_equal(
                artifact.structure_memory_of(cid), expected
            )

    def test_unknown_cid_raises(self, artifact):
        with pytest.raises(DataError):
            artifact.position_of("Z99.99")
        assert "Z99.99" not in artifact


class TestIntegrity:
    @pytest.fixture
    def artifact_copy(self, engine_stack, tmp_path):
        _, _, _, artifact_dir = engine_stack
        copy = tmp_path / "artifact"
        shutil.copytree(artifact_dir, copy)
        return copy

    def test_verify_passes_on_pristine_artifact(self, artifact_copy):
        manifest = verify_artifact(artifact_copy)
        assert "slab.bin" in manifest["files"]

    def test_checksum_tamper_is_detected(self, engine_stack, artifact_copy):
        _, _, model, _ = engine_stack
        target = artifact_copy / "slab.bin"
        corrupted = bytearray(target.read_bytes())
        corrupted[len(corrupted) // 2] ^= 0xFF
        target.write_bytes(bytes(corrupted))
        with pytest.raises(DataError):
            verify_artifact(artifact_copy)
        with pytest.raises(DataError):
            load_artifact(artifact_copy, model=model)

    def test_truncated_header_is_detected(self, engine_stack, artifact_copy):
        _, _, model, _ = engine_stack
        target = artifact_copy / "artifact.json"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(DataError):
            load_artifact(artifact_copy, model=model)

    def test_missing_file_is_detected(self, artifact_copy):
        (artifact_copy / "slab.bin").unlink()
        with pytest.raises(DataError):
            verify_artifact(artifact_copy)

    def test_format_version_mismatch_is_rejected(
        self, engine_stack, artifact_copy
    ):
        _, _, model, _ = engine_stack
        header_path = artifact_copy / "artifact.json"
        header = json.loads(header_path.read_text(encoding="utf-8"))
        header["format"] = ARTIFACT_FORMAT + 1
        header_path.write_text(json.dumps(header), encoding="utf-8")
        with pytest.raises(DataError):
            load_artifact(artifact_copy, model=model, verify=False)


class TestFingerprint:
    def test_different_weights_are_refused(self, engine_stack):
        _, _, model, artifact_dir = engine_stack
        stranger = ComAid(model.config, model.vocab, rng=999)
        assert model_fingerprint(stranger) != model_fingerprint(model)
        with pytest.raises(DataError):
            load_artifact(artifact_dir, model=stranger)

    def test_loading_without_a_model_skips_the_check(self, engine_stack):
        _, _, _, artifact_dir = engine_stack
        assert len(load_artifact(artifact_dir)) > 0


class TestCompileInputs:
    def test_restricted_compile_covers_only_requested_cids(
        self, engine_stack, tmp_path
    ):
        ontology, kb, model, _ = engine_stack
        out = tmp_path / "restricted"
        compile_artifact(
            out, model, ontology, kb=kb, restrict_to=["N18.5", "D53.2"]
        )
        restricted = load_artifact(out, model=model)
        assert sorted(restricted.cids) == ["D53.2", "N18.5"]

    def test_compile_with_no_concepts_fails_loudly(
        self, engine_stack, tmp_path
    ):
        ontology, kb, model, _ = engine_stack
        with pytest.raises(DataError):
            compile_artifact(
                tmp_path / "empty", model, ontology, kb=kb,
                restrict_to=["ZZZ"],
            )
