"""Tests for COM-AID/NCL configuration objects."""

import pytest

from repro.core.config import (
    PAPER_DEFAULTS,
    ComAidConfig,
    RETRIEVAL_MODES,
    LinkerConfig,
    RuntimeConfig,
    TrainingConfig,
)
from repro.utils.errors import ConfigurationError


class TestPaperDefaults:
    def test_table1_bold_entries(self):
        assert PAPER_DEFAULTS == {"k": 20, "beta": 2, "d": 150}


class TestComAidConfig:
    def test_variant_names(self):
        assert ComAidConfig().variant_name == "COM-AID"
        assert ComAidConfig(use_structure_attention=False).variant_name == "COM-AID-c"
        assert ComAidConfig(use_text_attention=False).variant_name == "COM-AID-w"
        assert ComAidConfig(
            use_text_attention=False, use_structure_attention=False
        ).variant_name == "COM-AID-wc"

    def test_invalid_dim(self):
        with pytest.raises(ConfigurationError):
            ComAidConfig(dim=0)

    def test_structure_attention_requires_beta(self):
        with pytest.raises(ConfigurationError):
            ComAidConfig(beta=0, use_structure_attention=True)
        ComAidConfig(beta=0, use_structure_attention=False)  # fine

    def test_negative_beta(self):
        with pytest.raises(ConfigurationError):
            ComAidConfig(beta=-1)


class TestTrainingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=0),
            dict(batch_size=0),
            dict(learning_rate=0.0),
            dict(clip_norm=0.0),
            dict(optimizer="rmsprop"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainingConfig(**kwargs)

    def test_valid_defaults(self):
        config = TrainingConfig()
        assert config.optimizer in ("sgd", "adagrad", "adam")


class TestLinkerConfig:
    def test_default_k_matches_paper(self):
        assert LinkerConfig().k == PAPER_DEFAULTS["k"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0),
            dict(edit_distance_max=-1),
            dict(rewrite_min_similarity=2.0),
            dict(rewrite_min_similarity=-2.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            LinkerConfig(**kwargs)


class TestRetrievalConfig:
    def test_exact_is_the_default(self):
        assert RETRIEVAL_MODES == ("exact", "hybrid")
        assert LinkerConfig().retrieval_mode == "exact"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(retrieval_mode="fuzzy"),
            dict(retrieval_mode="sparse", artifact_dir="a/"),
            dict(retrieval_mode="dense", artifact_dir="a/"),
            dict(retrieval_mode="Hybrid", artifact_dir="a/"),
            dict(retrieval_mode=""),
            dict(retrieval_mode="hybrid"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            LinkerConfig(**kwargs)

    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_removed_modes_refused_by_name(self, mode):
        # API 1.10 deleted the sparse and dense modes.
        with pytest.raises(ConfigurationError) as info:
            RuntimeConfig.from_dict(
                {"linker": {"retrieval_mode": mode, "artifact_dir": "a/"}}
            )
        assert (
            f"retrieval_mode must be one of ('exact', 'hybrid'), got {mode!r}"
        ) in str(info.value)

    def test_unknown_mapping_key_rejected(self):
        # The API <= 1.9 ``retrieval`` mapping names its successor.
        with pytest.raises(ConfigurationError) as info:
            RuntimeConfig.from_dict(
                {"linker": {"retrieval": {"mode": "hybrid", "nprobe": 4}}}
            )
        message = str(info.value)
        assert "['retrieval']" in message
        assert "use retrieval_mode, one of ('exact', 'hybrid')" in message

    def test_non_exact_requires_artifact_dir(self):
        with pytest.raises(ConfigurationError, match="artifact_dir"):
            LinkerConfig(retrieval_mode="hybrid")
        LinkerConfig(artifact_dir="a/", retrieval_mode="hybrid")  # fine
