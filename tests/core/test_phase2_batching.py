"""Equivalence of batched Phase-II scoring with the sequential reference.

The linker's one Phase-II path — every candidate of every query in a
batch scored by a single lock-step decode (``ConceptEngine.score_batch``,
with ``ComAid.score_batch`` as its encoding-pair form) — is
a numerical refactor of the paper's Eq. 5–9 hot path, so every claim
ships with a proof against the per-candidate oracle
(``tests/core/phase2_oracle.py``):

* ``score_batch`` log-probs match per-candidate ``score_with_encodings``
  to ≤1e-9 for randomized models (all four ablations × both cells,
  plus a hypothesis sweep over shapes);
* ``link()`` and ``link_batch()`` rankings, scores, keyword scores, and
  tie order are identical to the oracle's, whatever a query is batched
  with;
* heterogeneous candidate sets — different description lengths,
  different ontology depths including Def. 4.1's first-level-duplication
  padding — are masked correctly;
* the trivially-decodable shortcut (query fully covered by the
  description) short-circuits to exactly 0.0 on both sides;
* the decode shrinks: each row runs only its own ⟨query, eos⟩ steps
  (no ``<pad>`` steps), whatever order the rows arrive in;
* step 0 is per concept: the engine computes each concept's decoder
  start once, its step-0 log-probs match the oracle's, and a decode
  runs the recurrent step only for the query's own words — and never
  writes the start table;
* a call checks its word ids and empty queries once, before any step;
* a model whose logits pass Eq. 9's shift-free limit takes the shifted
  normaliser and still matches the oracle.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comaid import ComAid, ConceptMemory
from repro.core.config import ComAidConfig, LinkerConfig, ServingConfig
from repro.core.linker import NeuralConceptLinker
from repro.kb.knowledge_base import KnowledgeBase
from repro.engine.compile import compile_artifact, load_artifact
from repro.engine.concept_engine import ConceptEngine
from repro.nn.functional import (
    SHIFT_FREE_LIMIT,
    log_normalizers,
    log_softmax,
    sigmoid,
    sigmoid_inplace,
)
from repro.ontology.concept import Concept
from repro.ontology.ontology import Ontology
from repro.serving.service import LinkingService
from repro.text.vocab import Vocabulary
from repro.utils.errors import DataError
from repro.utils.faults import FaultSpec, fault_injection

from tests.core import phase2_oracle as oracle
from tests.serving.conftest import make_linker, trained_pipeline  # noqa: F401

TOLERANCE = 1e-9
ABLATIONS = [(True, True), (True, False), (False, True), (False, False)]


def _model(
    dim=9,
    beta=2,
    cell="lstm",
    use_text=True,
    use_struct=True,
    vocab_size=30,
    seed=7,
) -> ComAid:
    vocab = Vocabulary()
    for index in range(vocab_size):
        vocab.add(f"w{index}")
    config = ComAidConfig(
        dim=dim,
        beta=beta,
        use_text_attention=use_text,
        use_structure_attention=use_struct,
        cell=cell,
    )
    return ComAid(config, vocab, rng=seed)


def _word_ids(model: ComAid, rng: np.random.Generator, length: int):
    vocab_words = len(model.vocab) - 4  # specials are never drawn
    return model.words_to_ids(
        [f"w{int(rng.integers(0, vocab_words))}" for _ in range(length)]
    )


def _random_candidates(model: ComAid, rng: np.random.Generator, count: int):
    """Heterogeneous candidates: description/ancestor/query lengths vary."""
    candidates, queries = [], []
    for _ in range(count):
        encoding = model.encode_concept(
            _word_ids(model, rng, int(rng.integers(1, 7))), keep_caches=False
        )
        ancestors = []
        if model.config.use_structure_attention:
            ancestors = [
                model.encode_concept(
                    _word_ids(model, rng, int(rng.integers(1, 5))),
                    keep_caches=False,
                )
                for _ in range(model.config.beta)
            ]
        candidates.append((encoding, ancestors))
        queries.append(_word_ids(model, rng, int(rng.integers(1, 6))))
    return queries, candidates


class TestScoreBatchEquivalence:
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize(
        "use_text,use_struct",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_matches_sequential_per_candidate(self, cell, use_text, use_struct):
        model = _model(cell=cell, use_text=use_text, use_struct=use_struct)
        rng = np.random.default_rng(11)
        queries, candidates = _random_candidates(model, rng, count=8)
        batched = model.score_batch(queries, candidates)
        for row, ((encoding, ancestors), query) in enumerate(
            zip(candidates, queries)
        ):
            sequential = model.score_with_encodings(encoding, ancestors, query)
            assert abs(batched[row] - sequential) <= TOLERANCE

    def test_single_candidate_batch(self):
        model = _model()
        rng = np.random.default_rng(5)
        queries, candidates = _random_candidates(model, rng, count=1)
        batched = model.score_batch(queries, candidates)
        sequential = model.score_with_encodings(
            candidates[0][0], candidates[0][1], queries[0]
        )
        assert batched.shape == (1,)
        assert abs(batched[0] - sequential) <= TOLERANCE

    def test_order_invariance(self):
        # Scores are per-candidate properties: permuting the batch
        # permutes the outputs and nothing else.
        model = _model()
        rng = np.random.default_rng(13)
        queries, candidates = _random_candidates(model, rng, count=6)
        forward = model.score_batch(queries, candidates)
        permutation = [4, 0, 5, 2, 1, 3]
        shuffled = model.score_batch(
            [queries[i] for i in permutation],
            [candidates[i] for i in permutation],
        )
        np.testing.assert_allclose(
            shuffled, forward[permutation], rtol=0, atol=TOLERANCE
        )

    def test_validation(self):
        model = _model()
        rng = np.random.default_rng(3)
        queries, candidates = _random_candidates(model, rng, count=2)
        with pytest.raises(DataError):
            model.score_batch(queries[:1], candidates)
        with pytest.raises(DataError):
            model.score_batch([], [])
        with pytest.raises(DataError):
            model.score_batch([queries[0], []], candidates)
        # Wrong ancestor-path length (Def. 4.1 demands exactly beta).
        bad = [(candidates[0][0], candidates[0][1][:1]), candidates[1]]
        with pytest.raises(DataError):
            model.score_batch(queries, bad)

    def test_queries_checked_once_per_call(self, monkeypatch):
        # Ids and empty queries are checked when the call builds its
        # word matrix, before any step runs.
        model = _model()
        rng = np.random.default_rng(7)
        queries, candidates = _random_candidates(model, rng, count=3)
        memory = ConceptMemory.stack(
            [encoding for encoding, _ in candidates],
            [model._structure_memory(ancestors) for _, ancestors in candidates],
        )
        rows = np.arange(3)
        starts = model.decoder_start(memory, rows)
        cell = model.decoder.cell
        step_batch = cell.step_batch
        steps = []

        def spy(x, h, c, weights=None):
            steps.append(x.shape[0])
            return step_batch(x, h, c, weights)

        monkeypatch.setattr(cell, "step_batch", spy)
        weights = model.decode_weights()
        for bad in (len(model.vocab), -1):
            # The out-of-range id sits in the last step of one row.
            broken = [queries[0], list(queries[1]) + [bad], queries[2]]
            with pytest.raises(IndexError):
                model.score_from_starts(broken, starts, memory, rows, weights)
        with pytest.raises(DataError):
            model.score_from_starts(
                [queries[0], [], queries[2]], starts, memory, rows, weights
            )
        assert steps == [], "a bad query was found after decoding began"
        np.testing.assert_allclose(
            model.score_from_starts(queries, starts, memory, rows, weights),
            oracle.score_rows(model, queries, candidates),
            rtol=0,
            atol=TOLERANCE,
        )

    @pytest.mark.property
    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=8),
        beta=st.integers(min_value=1, max_value=3),
        cell=st.sampled_from(["lstm", "gru"]),
        use_text=st.booleans(),
        use_struct=st.booleans(),
        count=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_random_shapes(
        self, dim, beta, cell, use_text, use_struct, count, seed
    ):
        model = _model(
            dim=dim,
            beta=beta,
            cell=cell,
            use_text=use_text,
            use_struct=use_struct,
            vocab_size=12,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        queries, candidates = _random_candidates(model, rng, count=count)
        batched = model.score_batch(queries, candidates)
        for row, ((encoding, ancestors), query) in enumerate(
            zip(candidates, queries)
        ):
            sequential = model.score_with_encodings(encoding, ancestors, query)
            assert abs(batched[row] - sequential) <= TOLERANCE


def _mixed_length_batch(model: ComAid, rng: np.random.Generator):
    """Two rows finishing at every decode step 2..6 (1- to 5-word
    queries), shuffled so the batch arrives in no particular order."""
    lengths = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 1, 3]
    _, candidates = _random_candidates(model, rng, count=len(lengths))
    queries = [_word_ids(model, rng, length) for length in lengths]
    shuffle = rng.permutation(len(lengths))
    return [queries[i] for i in shuffle], [candidates[i] for i in shuffle]


class TestShrinkingDecode:
    """``score_batch`` decodes each row only while its ⟨query, eos⟩
    sequence lasts: rows run longest first and drop out of the batch
    after their last step, and the scores land back in caller order."""

    def test_step_batch_sees_only_live_rows(self, monkeypatch):
        model = _model()
        queries, candidates = _mixed_length_batch(
            model, np.random.default_rng(17)
        )
        cell = model.decoder.cell
        step_batch = cell.step_batch
        seen = []

        def spy(x, h, c, weights=None):
            seen.append(x.shape[0])
            return step_batch(x, h, c, weights)

        monkeypatch.setattr(cell, "step_batch", spy)
        model.score_batch(queries, candidates)
        assert sum(seen) == sum(len(query) + 1 for query in queries)
        # No <pad> row ever comes back: the batch only shrinks.
        assert seen == sorted(seen, reverse=True)
        assert seen[0] == len(queries)

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize(
        "use_text,use_struct",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_mixed_lengths_match_oracle(self, cell, use_text, use_struct):
        model = _model(cell=cell, use_text=use_text, use_struct=use_struct)
        queries, candidates = _mixed_length_batch(
            model, np.random.default_rng(19)
        )
        np.testing.assert_allclose(
            model.score_batch(queries, candidates),
            oracle.score_rows(model, queries, candidates),
            rtol=0,
            atol=TOLERANCE,
        )

    def test_permuted_order_gives_same_row_scores(self):
        model = _model()
        rng = np.random.default_rng(23)
        queries, candidates = _mixed_length_batch(model, rng)
        reference = oracle.score_rows(model, queries, candidates)
        permutation = rng.permutation(len(queries))
        permuted = model.score_batch(
            [queries[i] for i in permutation],
            [candidates[i] for i in permutation],
        )
        np.testing.assert_allclose(
            permuted,
            [reference[i] for i in permutation],
            rtol=0,
            atol=TOLERANCE,
        )

    @pytest.mark.parametrize("scale", [1.0, 50.0, 700.0])
    def test_target_log_probs_match_log_softmax(self, scale):
        rng = np.random.default_rng(29)
        logits = rng.uniform(-scale, scale, size=(6, 40))
        logits[0, :] = scale  # a row of ties at the extreme
        logits[1, 3] = -scale
        targets = np.array([0, 3, 39, 7, 12, 20])
        expected = log_softmax(logits)[np.arange(6), targets]
        # The decode step's read-out: the target logit, then the
        # normaliser in place (shift-free at ±1 and ±50, shifted at ±700).
        work = logits.copy()
        got = work[np.arange(6), targets] - log_normalizers(work, scale)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def _assert_links_equivalent(batched_result, sequential_result):
    assert not batched_result.degraded and not sequential_result.degraded
    assert [c.cid for c in batched_result.ranked] == [
        c.cid for c in sequential_result.ranked
    ]
    for batched, sequential in zip(
        batched_result.ranked, sequential_result.ranked
    ):
        assert abs(batched.log_prob - sequential.log_prob) <= TOLERANCE
        assert batched.keyword_score == sequential.keyword_score


def _ranking(result):
    return [(c.cid, c.keyword_score) for c in result.ranked]


class TestLinkerEquivalence:
    QUERIES = [
        "ckd stage 5",
        "anemia blood loss",
        "vitamin c deficiency anemia",
        "acute abdomen pain",
        "chronic kidney disease",
        "protein deficiency anemia",
    ]

    def test_link_identical_on_off(self, make_linker):
        linker = make_linker()
        for query in self.QUERIES:
            _assert_links_equivalent(
                linker.link(query), oracle.link(linker, query)
            )

    def test_link_batch_identical_on_off(self, make_linker):
        linker = make_linker()
        for batched_result, sequential_result in zip(
            linker.link_batch(self.QUERIES),
            oracle.link_batch(linker, self.QUERIES),
        ):
            _assert_links_equivalent(batched_result, sequential_result)

    def test_fully_covered_query_scores_exact_zero(self, make_linker):
        # Every query word appears in D50.0's canonical description, so
        # both sides short-circuit to log p = 0.0 exactly (no decode).
        linker = make_linker()
        for result in (
            linker.link("iron deficiency anemia"),
            oracle.link(linker, "iron deficiency anemia"),
        ):
            assert result.rank_of("D50.0") == 1
            top = result.top
            assert top.cid == "D50.0" and top.log_prob == 0.0

    def test_tie_order_preserved(self, make_linker):
        # Keyword-score ties are broken by the stable sort over the
        # Phase-I hit order; the batched path must preserve that order
        # bit-for-bit, not merely the multiset of cids.
        linker = make_linker()
        for query in self.QUERIES:
            assert _ranking(linker.link(query)) == _ranking(
                oracle.link(linker, query)
            )

    def test_link_is_a_batch_of_one(self, make_linker):
        # A query's result does not depend on what it is batched with:
        # alone, as a batch of one, or fused with another query.
        linker = make_linker()
        for query, other in zip(self.QUERIES, reversed(self.QUERIES)):
            alone = linker.link(query)
            _assert_links_equivalent(alone, linker.link_batch([query])[0])
            _assert_links_equivalent(
                alone, linker.link_batch([query, other])[0]
            )


def _heterogeneous_parts():
    """``(ontology, kb, vocab)`` whose candidate sets mix ontology depths
    and description lengths: a first-level leaf (Def. 4.1 pads its path
    by duplicating itself), second-level leaves, and a third-level leaf
    with real ancestors — all retrievable by the shared word "pain"."""
    ontology = Ontology()
    ontology.add(Concept("P00", "pain"))  # first-level, childless
    ontology.add(Concept("R10", "abdominal and pelvic pain"))
    ontology.add(
        Concept("R10.0", "acute abdomen pain syndrome"), parent_cid="R10"
    )
    ontology.add(
        Concept("R10.1", "pain localized to upper abdomen region"),
        parent_cid="R10",
    )
    ontology.add(Concept("G89", "pain not elsewhere classified"))
    ontology.add(Concept("G89.2", "chronic pain"), parent_cid="G89")
    ontology.add(
        Concept("G89.21", "chronic pain due to trauma syndrome"),
        parent_cid="G89.2",
    )
    kb = KnowledgeBase(ontology)
    vocab = Vocabulary()
    for concept in ontology:
        vocab.add_all(concept.words)
    vocab.add_all(["severe", "unexplained"])
    return ontology, kb, vocab


def _heterogeneous_linker() -> NeuralConceptLinker:
    ontology, kb, vocab = _heterogeneous_parts()
    model = ComAid(ComAidConfig(dim=8, beta=2), vocab, rng=29)
    return NeuralConceptLinker(model, ontology, LinkerConfig(k=10), kb=kb)


class TestHeterogeneousCandidates:
    QUERIES = [
        "severe pain syndrome",
        "chronic abdomen pain",
        "pain syndrome trauma",
        "unexplained pain",
    ]

    def test_mixed_depths_and_lengths_match_sequential(self):
        linker = _heterogeneous_linker()
        for query in self.QUERIES:
            batched_result = linker.link(query)
            # The point of the fixture: one candidate set spans depths
            # 1–3 and description lengths 1–6.
            cids = {c.cid for c in batched_result.ranked}
            assert "P00" in cids and "G89.21" in cids
            _assert_links_equivalent(
                batched_result, oracle.link(linker, query)
            )

    def test_first_level_duplication_padding(self):
        # P00 has no ancestors; its structural context is <P00, P00, P00>
        # (Def. 4.1).  The batched (k, beta, d) structure memory must
        # reproduce that duplicated block exactly.
        linker = _heterogeneous_linker()
        ancestors = oracle.ancestor_encodings(linker, "P00")
        assert len(ancestors) == 2
        np.testing.assert_array_equal(ancestors[0].final_h, ancestors[1].final_h)
        result = linker.link("severe pain syndrome")
        by_cid = {c.cid: c.log_prob for c in result.ranked}
        assert math.isfinite(by_cid["P00"])
        assert abs(
            by_cid["P00"]
            - oracle.score_candidate(
                linker,
                "P00",
                ("severe", "pain", "syndrome"),
                oracle.scoring_vocabulary(linker),
            )
        ) <= TOLERANCE


def _compiled_engine(model, ontology, kb, directory) -> ConceptEngine:
    compile_artifact(directory, model, ontology, kb=kb)
    return ConceptEngine(
        model, ontology, load_artifact(directory, model=model)
    )


def _vocab_query(model: ComAid, rng: np.random.Generator, length: int):
    words = [word for word in model.vocab.words if not word.startswith("<")]
    return model.words_to_ids(
        [words[int(rng.integers(0, len(words)))] for _ in range(length)]
    )


def _runtime_candidates(linker: NeuralConceptLinker, cids):
    """Runtime (encoder-run) ``(concept, ancestors)`` pairs for cids,
    one pair object per distinct cid (as ``score_batch`` dedups by
    identity)."""
    pairs = {
        cid: (
            oracle.concept_encoding(linker, cid),
            oracle.ancestor_encodings(linker, cid),
        )
        for cid in dict.fromkeys(cids)
    }
    return [pairs[cid] for cid in cids]


class TestDecoderStart:
    """Step 0 depends only on the concept: the engine computes each
    concept's ``(h_1, c_1, s̃_0, log Z_0)`` once, lazily, and every
    decode starts at step 1."""

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("use_text,use_struct", ABLATIONS)
    def test_start_table_step0_matches_oracle(
        self, tmp_path, cell, use_text, use_struct
    ):
        ontology, kb, vocab = _heterogeneous_parts()
        config = ComAidConfig(
            dim=8,
            beta=2,
            cell=cell,
            use_text_attention=use_text,
            use_structure_attention=use_struct,
        )
        model = ComAid(config, vocab, rng=31)
        engine = _compiled_engine(model, ontology, kb, tmp_path / "artifact")
        runtime = NeuralConceptLinker(model, ontology, LinkerConfig(), kb=kb)
        cids = engine.artifact.cids
        starts = engine._decoder_starts(np.arange(len(cids)))
        dim = config.dim
        # Step 0's log-prob of every word w: W_s[w]·s̃_0 + b[w] − log Z_0.
        step0 = (
            starts[:, 2 * dim : 3 * dim] @ model.output.weight.value.T
            + model.output.bias.value
            - starts[:, 3 * dim, None]
        )
        query = model.words_to_ids(["pain"])
        for position, (encoding, ancestors) in enumerate(
            _runtime_candidates(runtime, cids)
        ):
            expected = oracle.step_log_probs(model, encoding, ancestors, query)
            np.testing.assert_allclose(
                step0[position], expected[0], rtol=0, atol=1e-12
            )

    def test_engine_decode_steps_only_query_words(self, tmp_path, monkeypatch):
        ontology, kb, vocab = _heterogeneous_parts()
        model = ComAid(ComAidConfig(dim=8, beta=2), vocab, rng=29)
        engine = _compiled_engine(model, ontology, kb, tmp_path / "artifact")
        cids = list(engine.artifact.cids) * 2
        rng = np.random.default_rng(37)
        queries = [_vocab_query(model, rng, int(rng.integers(1, 6))) for _ in cids]
        engine.score_batch(queries, cids)  # fills the start table
        cell = model.decoder.cell
        step_batch = cell.step_batch
        seen = []

        def spy(x, h, c, weights=None):
            seen.append(x.shape[0])
            return step_batch(x, h, c, weights)

        monkeypatch.setattr(cell, "step_batch", spy)
        engine.score_batch(queries, cids)
        # Step 0 came from the table: one recurrent row-step per query
        # word (the <eos> step included), not per word + 1.
        assert sum(seen) == sum(len(query) for query in queries)
        assert seen[0] == len(cids)

    def test_repeated_concept_start_computed_once(self, tmp_path, monkeypatch):
        ontology, kb, vocab = _heterogeneous_parts()
        model = ComAid(ComAidConfig(dim=8, beta=2), vocab, rng=29)
        engine = _compiled_engine(model, ontology, kb, tmp_path / "artifact")
        calls = []
        decoder_start = model.decoder_start

        def spy(memory, rows):
            calls.append(list(rows))
            return decoder_start(memory, rows)

        monkeypatch.setattr(model, "decoder_start", spy)
        cids = engine.artifact.cids
        batch = [cids[0], cids[1], cids[0], cids[2], cids[1], cids[0]]
        rng = np.random.default_rng(41)
        queries = [_vocab_query(model, rng, 2) for _ in batch]
        first = engine.score_batch(queries, batch)
        assert calls == [[0, 1, 2]]
        again = engine.score_batch(queries[::-1], batch[::-1])
        assert len(calls) == 1, "a second decode computed a start"
        np.testing.assert_allclose(again, first[::-1], rtol=0, atol=TOLERANCE)
        # The runtime-encoding path: once per distinct concept per call.
        runtime = NeuralConceptLinker(model, ontology, LinkerConfig(), kb=kb)
        candidates = _runtime_candidates(runtime, batch)
        scores = model.score_batch(queries, candidates)
        assert len(calls) == 2 and len(calls[1]) == 3
        np.testing.assert_allclose(
            scores,
            oracle.score_rows(model, queries, candidates),
            rtol=0,
            atol=TOLERANCE,
        )

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize("use_text,use_struct", ABLATIONS)
    def test_widest_and_one_word_descriptions_match_oracle(
        self, tmp_path, cell, use_text, use_struct
    ):
        ontology, kb, vocab = _heterogeneous_parts()
        config = ComAidConfig(
            dim=8,
            beta=2,
            cell=cell,
            use_text_attention=use_text,
            use_structure_attention=use_struct,
        )
        model = ComAid(config, vocab, rng=43)
        engine = _compiled_engine(model, ontology, kb, tmp_path / "artifact")
        runtime = NeuralConceptLinker(model, ontology, LinkerConfig(), kb=kb)
        widths = {
            cid: len(ontology.get(cid).words) for cid in engine.artifact.cids
        }
        widest = max(widths, key=widths.get)
        narrowest = min(widths, key=widths.get)
        assert widths[narrowest] == 1 and widths[widest] == 6
        cids = [narrowest, widest, widest, narrowest, widest]
        candidates = _runtime_candidates(runtime, cids)
        rng = np.random.default_rng(47)
        for lengths in ([1, 3, 1, 4, 2], [1] * len(cids)):
            queries = [_vocab_query(model, rng, length) for length in lengths]
            np.testing.assert_allclose(
                engine.score_batch(queries, cids),
                oracle.score_rows(model, queries, candidates),
                rtol=0,
                atol=TOLERANCE,
            )

    def test_decode_never_writes_the_start_table(self, tmp_path):
        ontology, kb, vocab = _heterogeneous_parts()
        model = ComAid(ComAidConfig(dim=8, beta=2), vocab, rng=29)
        engine = _compiled_engine(model, ontology, kb, tmp_path / "artifact")
        cids = list(engine.artifact.cids) * 2
        rng = np.random.default_rng(61)
        queries = [_vocab_query(model, rng, int(rng.integers(1, 6))) for _ in cids]
        first = engine.score_batch(queries, cids)  # fills the start table
        filled = engine._starts_filled
        table = engine._starts[:filled].tobytes()
        again = engine.score_batch(queries, cids)
        assert engine._starts_filled == filled
        assert engine._starts[:filled].tobytes() == table
        np.testing.assert_array_equal(again, first)

    def test_swap_scores_with_the_new_model(self, tmp_path):
        ontology, kb, vocab = _heterogeneous_parts()
        config = ComAidConfig(dim=8, beta=2)
        old, new = ComAid(config, vocab, rng=29), ComAid(config, vocab, rng=53)
        compile_artifact(tmp_path / "old", old, ontology, kb=kb)
        linker = NeuralConceptLinker(
            old,
            ontology,
            LinkerConfig(k=10, artifact_dir=str(tmp_path / "old")),
            kb=kb,
        )
        queries = TestHeterogeneousCandidates.QUERIES
        before = linker.link_batch(queries)  # fills the old start table
        engine = _compiled_engine(new, ontology, kb, tmp_path / "new")
        linker.swap_engine(new, engine, artifact_dir=str(tmp_path / "new"))
        after = linker.link_batch(queries)
        for served, reference in zip(after, oracle.link_batch(linker, queries)):
            _assert_links_equivalent(served, reference)
        changed = [
            a.log_prob != b.log_prob
            for old_result, new_result in zip(before, after)
            for a, b in zip(old_result.ranked, new_result.ranked)
        ]
        assert any(changed), "the swap left every score unchanged"

    def test_inference_sigmoid_matches_training_sigmoid(self):
        x = np.concatenate(
            [
                np.linspace(-1000.0, 1000.0, 200001),
                [-745.0, -709.0, 709.0, 745.0, 0.0, -0.0],
            ]
        )
        expected = sigmoid(x)
        with np.errstate(all="raise"):
            got = sigmoid_inplace(x.copy())
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


class TestFusedPhase2Equivalence:
    """Cross-query fusion: ``link_batch`` runs ONE ``score_batch`` decode
    over every surviving candidate of every query in the batch — the
    serving tiers' cross-request GEMM.  ``score_batch`` rows are
    batch-composition independent (``test_order_invariance``), so the
    fused results must match the per-candidate oracle query for query.
    """

    QUERIES = TestLinkerEquivalence.QUERIES

    def test_link_batch_fused_matches_sequential(self, make_linker):
        linker = make_linker()
        for fused_result, sequential_result in zip(
            linker.link_batch(self.QUERIES),
            oracle.link_batch(linker, self.QUERIES),
        ):
            _assert_links_equivalent(fused_result, sequential_result)

    def test_single_query_batch_short_circuits_to_reference(
        self, make_linker
    ):
        # A one-query batch has nothing to fuse; it runs the same single
        # decode and must still agree with the reference.
        linker = make_linker()
        _assert_links_equivalent(
            linker.link_batch(["ckd stage 5"])[0],
            oracle.link(linker, "ckd stage 5"),
        )

    def test_fused_heterogeneous_candidates(self):
        linker = _heterogeneous_linker()
        queries = TestHeterogeneousCandidates.QUERIES
        for fused_result, sequential_result in zip(
            linker.link_batch(queries), oracle.link_batch(linker, queries)
        ):
            _assert_links_equivalent(fused_result, sequential_result)

    def test_fused_decode_is_one_batch_site_hit(self, make_linker):
        # The whole point: N queries, ONE fused decode.
        linker = make_linker()
        with fault_injection(
            {"linker.phase2.batch": FaultSpec(action="delay", times=0)}
        ) as plan:
            linker.link_batch(self.QUERIES[:4])
        assert plan.hits("linker.phase2.batch") == 1

    def test_fused_degrades_per_query_not_per_batch(self, make_linker):
        linker = make_linker()
        # Fail the first candidate probe: only the query that owns it
        # degrades; the other rides the fused decode untouched.
        with fault_injection({"linker.phase2": FaultSpec(times=1)}):
            results = linker.link_batch(["ckd stage 5", "anemia blood loss"])
        assert results[0].degraded
        assert results[0].degraded_reason.startswith("error:")
        assert not results[1].degraded
        _assert_links_equivalent(
            results[1], oracle.link(linker, "anemia blood loss")
        )

    def test_fused_tie_order_preserved(self, make_linker):
        linker = make_linker()
        left = [_ranking(result) for result in linker.link_batch(self.QUERIES)]
        right = [
            _ranking(result)
            for result in oracle.link_batch(linker, self.QUERIES)
        ]
        assert left == right


class TestBatchProbeSite:
    """The ``faults`` harness's ``linker.phase2.batch`` site."""

    def test_batched_path_hits_site_once_per_query(self, make_linker):
        linker = make_linker()
        with fault_injection(
            {"linker.phase2.batch": FaultSpec(action="delay", times=0)}
        ) as plan:
            linker.link("ckd stage 5")
            linker.link("anemia blood loss")
        assert plan.hits("linker.phase2.batch") == 2

    def test_service_micro_batch_is_one_decode(self, make_linker):
        # The in-process tier fuses across requests: N queries fused
        # into one link_batch share a single decode.
        queries = TestLinkerEquivalence.QUERIES[:4]
        linker = make_linker()
        service = LinkingService(
            linker,
            ServingConfig(
                warm_on_start=False,
                max_batch_size=len(queries),
            ),
        )
        service.start(wait=True)
        try:
            with fault_injection(
                {"linker.phase2.batch": FaultSpec(action="delay", times=0)}
            ) as plan:
                results = service.link_many(queries)
            assert service.snapshot()["counters"]["batches_total"] == 1
        finally:
            service.stop()
        assert plan.hits("linker.phase2.batch") == 1
        for served, reference in zip(
            results, oracle.link_batch(linker, queries)
        ):
            _assert_links_equivalent(served, reference)


class TestShiftedNormaliser:
    """Eq. 9 past the shift-free limit.  The test models' logits stay
    far inside it, so this model's output layer is scaled until its
    logit bound is above the limit and its decode logits pass ±709.78,
    where an unshifted ``exp`` overflows: the decode must take the
    shifted branch and still match the oracle, warning-free."""

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_scores_past_the_limit_match_oracle(
        self, tmp_path, monkeypatch, cell
    ):
        ontology, kb, vocab = _heterogeneous_parts()
        model = ComAid(ComAidConfig(dim=8, beta=2, cell=cell), vocab, rng=67)
        runtime = NeuralConceptLinker(model, ontology, LinkerConfig(), kb=kb)
        cids = list(runtime.candidates.indexed_cids) * 2
        rng = np.random.default_rng(71)
        queries = [_vocab_query(model, rng, int(rng.integers(1, 5))) for _ in cids]
        candidates = _runtime_candidates(runtime, cids)
        seen = []

        def spy(logits, bound=math.inf, exp_bias=None):
            seen.append((bound, float(np.abs(logits).max())))
            return log_normalizers(logits, bound, exp_bias)

        monkeypatch.setattr("repro.core.comaid.log_normalizers", spy)
        # The output bias is zero, so the logits scale with W_s: put
        # the largest at 800.
        model.score_batch(queries, candidates)
        model.output.weight.value *= 800.0 / max(large for _, large in seen)
        assert not model.output.bias.value.any()
        assert model.logit_bound() >= SHIFT_FREE_LIMIT
        engine = _compiled_engine(model, ontology, kb, tmp_path / "artifact")
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scores in (
                engine.score_batch(queries, cids),
                model.score_batch(queries, candidates),
            ):
                np.testing.assert_allclose(
                    scores,
                    oracle.score_rows(model, queries, candidates),
                    rtol=0,
                    atol=TOLERANCE,
                )
        # Step 0's log Z_0 is always shifted (bound ∞); the decode steps
        # got the finite bound, and their logits passed e^709.78 too.
        steps = [large for bound, large in seen if bound < math.inf]
        assert all(bound >= SHIFT_FREE_LIMIT for bound, _ in seen)
        assert steps and max(steps) > 710.0
