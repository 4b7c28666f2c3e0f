"""Tests for COM-AID/NCL configuration objects."""

import pytest

from repro.core.config import (
    PAPER_DEFAULTS,
    ComAidConfig,
    LinkerConfig,
    RetrievalConfig,
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
        config = RetrievalConfig()
        assert config.mode == "exact"
        assert LinkerConfig().retrieval == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="fuzzy"),
            dict(nprobe=0),
            dict(fusion_weight=1.5),
            dict(fusion_weight=-0.1),
            dict(fusion_method="borda"),
            dict(max_postings_per_term=-1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetrievalConfig(**kwargs)

    def test_mapping_coerces_in_linker_config(self):
        config = LinkerConfig(
            artifact_dir="a/", retrieval={"mode": "hybrid", "nprobe": 4}
        )
        assert isinstance(config.retrieval, RetrievalConfig)
        assert config.retrieval.mode == "hybrid"
        assert config.retrieval.nprobe == 4

    def test_unknown_mapping_key_rejected(self):
        with pytest.raises(ConfigurationError, match="retrieval"):
            LinkerConfig(artifact_dir="a/", retrieval={"knob": 1})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkerConfig(retrieval="hybrid")

    def test_non_exact_requires_artifact_dir(self):
        with pytest.raises(ConfigurationError, match="artifact_dir"):
            LinkerConfig(retrieval={"mode": "sparse"})
        LinkerConfig(artifact_dir="a/", retrieval={"mode": "sparse"})  # fine
