"""The stable v1 facade: resolution, helpers, and no top-level shims."""

import warnings

import pytest

import repro
import repro.api as api


class TestSurface:
    def test_api_version(self):
        # Minor bumps on compatible additions (1.1 added retrieval,
        # 1.2 the model lifecycle, 1.3 multi-process serving, 1.4
        # cross-process observability, 1.5 multi-tenant serving and
        # cross-ontology mapping, 1.6 the single Phase-II path, which
        # dropped two LinkerConfig flags and an engine parameter, 1.7
        # the one concept engine, which dropped LinkerConfig.shards,
        # ShardFailure and the sharded engine's name, 1.8 the one
        # serving dispatcher, which dropped ServingConfig.batch_wait_ms,
        # 1.9 one engine for every linker, which dropped
        # LinkerConfig.encoding_cache_size and TenantConfig.cache_budget,
        # 1.10 two retrieval modes, which folded RetrievalConfig into
        # LinkerConfig.retrieval_mode, 1.11 one Appendix-A feedback
        # loop, which dropped FeedbackController); the major component
        # is the /v1 route contract.
        assert api.API_VERSION == "1.11"
        assert api.API_VERSION.split(".")[0] == "1"

    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_dir_lists_the_full_surface(self):
        listed = dir(api)
        for name in api.__all__:
            assert name in listed

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            api.definitely_not_exported

    def test_helpers_are_callable(self):
        for helper in ("train", "load_linker", "link", "link_batch",
                       "compile_artifact"):
            assert callable(getattr(api, helper)), helper

    def test_exports_cover_the_core_lifecycle(self):
        for name in (
            "ComAidConfig", "TrainingConfig", "LinkerConfig", "ServingConfig",
            "RuntimeConfig", "ComAid", "ComAidTrainer", "NeuralConceptLinker",
            "LinkResult", "KnowledgeBase", "Ontology", "load_pipeline",
            "save_pipeline", "load_artifact", "ConceptEngine",
            "LinkingService", "ReproError",
        ):
            assert name in api.__all__, name


class TestDeprecationShims:
    """The ``repro.<name>`` re-exports, deprecated since the v1 facade,
    are removed: ``repro.api`` is the one import path."""

    #: The names the package root used to re-export.
    LEGACY_NAMES = (
        "CbowConfig",
        "ComAid",
        "ComAidConfig",
        "ComAidTrainer",
        "Concept",
        "KnowledgeBase",
        "LinkerConfig",
        "NeuralConceptLinker",
        "Ontology",
        "SnippetCorpus",
        "TrainingConfig",
        "hospital_x_like",
        "mimic_iii_like",
        "pretrain_word_vectors",
    )

    def test_top_level_names_are_gone_but_api_imports(self):
        with pytest.raises(AttributeError):
            repro.NeuralConceptLinker
        from repro import api as facade

        assert facade is api

    def test_every_legacy_name_still_resolves(self):
        """Each legacy name resolves from ``repro.api``, not the root."""
        assert repro.__all__ == ["__version__"]
        for name in self.LEGACY_NAMES:
            assert name in api.__all__, name
            assert getattr(api, name) is not None, name
            assert not hasattr(repro, name), name

    def test_version_attribute_is_not_deprecated(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert repro.__version__
