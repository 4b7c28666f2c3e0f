"""The OOV rewriter against its reference rule (paper Section 5, Eq. 13).

``QueryRewriter`` answers Eq. 13 from an Ω-only unit matrix and keeps
each Ω′ word's answer in a per-rewriter table.  The reference here is
the rule stated on the public API: ``WordVectors.nearest(word, k=1,
restrict_to=Ω)`` (tag words excluded, equal cosines to the earliest Ω′
position) gated by ``min_similarity``, with typos first repaired to
their closest Ω′ word by edit distance.  The linker's own equivalence
harnesses reuse the linker's rewriter, so only this suite can catch a
rewrite regression.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.rewriter as rewriter_module
from repro.core.comaid import ComAid
from repro.core.config import ComAidConfig, LinkerConfig
from repro.core.linker import NeuralConceptLinker
from repro.core.rewriter import QueryRewriter, Rewrite
from repro.embeddings.similarity import WordVectors
from repro.engine.compile import compile_artifact, load_artifact
from repro.engine.concept_engine import ConceptEngine
from repro.kb.knowledge_base import KnowledgeBase
from repro.ontology.concept import Concept
from repro.ontology.ontology import Ontology
from repro.text.edit_distance import levenshtein
from repro.text.vocab import Vocabulary

EDIT_MAX = 2
MIN_EDIT_LENGTH = 4


def reference_nearest(vectors, omega, word, min_similarity):
    matches = vectors.nearest(word, k=1, restrict_to=omega)
    if not matches or matches[0][1] < min_similarity:
        return None
    return matches[0][0]


def reference_repair(vectors, word):
    if len(word) < MIN_EDIT_LENGTH:
        return None
    tags = vectors.tag_words
    within = [
        (distance, len(candidate), candidate)
        for candidate in vectors.words
        if candidate not in tags
        for distance in [levenshtein(word, candidate)]
        if distance <= EDIT_MAX
    ]
    return min(within)[2] if within else None


def reference_rewrite(vectors, omega, tokens, min_similarity):
    """The rewrite rule, step by step, on the public nearest-word API."""
    rewritten, applied = [], []
    for token in tokens:
        replacement, via = token, "kept"
        if token not in omega:
            if token in vectors:
                nearest = reference_nearest(
                    vectors, omega, token, min_similarity
                )
                if nearest is not None:
                    replacement, via = nearest, "embedding"
            else:
                repaired = reference_repair(vectors, token)
                if repaired in omega:
                    replacement, via = repaired, "edit+embedding"
                elif repaired is not None:
                    nearest = reference_nearest(
                        vectors, omega, repaired, min_similarity
                    )
                    if nearest is not None:
                        replacement, via = nearest, "edit+embedding"
        rewritten.append(replacement)
        if via != "kept":
            applied.append(Rewrite(token, replacement, via))
    return rewritten, applied


def _typo(word, draw):
    """One random substitution, deletion or insertion in ``word``."""
    position = draw(st.integers(0, len(word) - 1))
    letter = draw(st.sampled_from("abcdx"))
    edit = draw(st.sampled_from(["sub", "del", "ins"]))
    if edit == "sub":
        return word[:position] + letter + word[position + 1:]
    if edit == "del":
        return word[:position] + word[position + 1:]
    return word[:position] + letter + word[position:]


@st.composite
def rewrite_cases(draw):
    """Vectors, Ω, a gate and a query mixing every rewrite path.

    Small integer entries make zero rows, duplicate rows and exact
    cosine ties common; some Ω words have no vector and some Ω′ words
    are tags (possibly also in Ω); Ω∩Ω′ may be empty; the gate is
    often an exact cosine the reference sees.
    """
    names = draw(
        st.lists(
            st.text(alphabet="abcd", min_size=3, max_size=6),
            min_size=2,
            max_size=14,
            unique=True,
        )
    )
    n_vectors = draw(st.integers(1, len(names)))
    words = names[:n_vectors]  # the rest are Ω candidates with no vector
    dim = draw(st.integers(2, 4))
    rows = []
    for _ in words:
        if rows and draw(st.integers(0, 4)) == 0:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        else:
            entries = st.integers(-3, 3)
            rows.append(draw(st.lists(entries, min_size=dim, max_size=dim)))
    tags = [word for word in words if draw(st.integers(0, 5)) == 0]
    vectors = WordVectors(words, np.array(rows, dtype=float), tag_words=tags)
    omega = {word for word in names if draw(st.booleans())}
    if not omega:
        omega = {names[-1]}
    outside = [word for word in words if word not in omega]
    min_similarity = draw(st.sampled_from([-1.0, 0.0, 0.3, 0.6, 0.9, 1.0]))
    if outside and draw(st.booleans()):
        probe = draw(st.sampled_from(outside))
        ranked = vectors.nearest(probe, k=len(words), restrict_to=omega)
        exact = [score for _, score in ranked if -1.0 <= score <= 1.0]
        if exact:
            min_similarity = draw(st.sampled_from(exact))
    tokens = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(
            st.sampled_from(["outside", "omega", "typo", "number", "unknown"])
        )
        if kind == "outside" and outside:
            tokens.append(draw(st.sampled_from(outside)))
        elif kind == "omega":
            tokens.append(draw(st.sampled_from(sorted(omega))))
        elif kind == "typo":
            tokens.append(_typo(draw(st.sampled_from(words)), draw))
        elif kind == "number":
            tokens.append(draw(st.sampled_from(["5", "7.5", "75%"])))
        else:
            tokens.append(draw(st.sampled_from(["zzzzz", "xyxyxy", "q"])))
    return vectors, omega, min_similarity, tokens


class TestRewriterMatchesReference:
    @pytest.mark.property
    @settings(max_examples=300, deadline=None)
    @given(rewrite_cases())
    def test_rewrite_matches_nearest_rule(self, case):
        vectors, omega, min_similarity, tokens = case
        rewriter = QueryRewriter(omega, vectors, min_similarity=min_similarity)
        expected = reference_rewrite(vectors, omega, tokens, min_similarity)
        assert rewriter.rewrite(tokens) == expected
        # Second pass: every Ω′ answer now comes from the table.
        assert rewriter.rewrite(tokens) == expected

    def test_duplicate_vectors_tie_to_earliest_position(self):
        # Identical rows: a row-blocked BLAS mat-vec scores the last two
        # of these six one ulp above the rest; the rewriter and nearest()
        # must both see a tie and take the earliest Ω′ position.
        row = [5.29, -1.03, -1.06, -1.26, 1.88, 0.56, 4.11, -1.66]
        words = ["query", "late", "early", "middle", "last", "first"]
        vectors = WordVectors(words, np.array([row] * len(words)))
        omega = {"late", "middle", "early", "last"}
        assert vectors.nearest("query", restrict_to=omega)[0][0] == "late"
        rewriter = QueryRewriter(omega, vectors)
        assert rewriter.rewrite(["query"])[0] == ["late"]

    def test_empty_omega_intersection_keeps_words(self):
        vectors = WordVectors(["abcd", "bcde"], np.eye(2))
        rewriter = QueryRewriter({"elsewhere"}, vectors, min_similarity=-1.0)
        assert rewriter.rewrite(["abcd", "abce"]) == (["abcd", "abce"], [])


def _counting(monkeypatch, rewriter):
    calls = {"cosines": 0, "repair": 0}
    cosines, repair = rewriter_module.cosines, rewriter._edit_repair

    def counted_cosines(*args):
        calls["cosines"] += 1
        return cosines(*args)

    def counted_repair(word):
        calls["repair"] += 1
        return repair(word)

    monkeypatch.setattr(rewriter_module, "cosines", counted_cosines)
    monkeypatch.setattr(rewriter, "_edit_repair", counted_repair)
    return calls


def _renal_vectors():
    words = [
        "chronic", "kidney", "disease", "renal", "failure", "nephro", "n18"
    ]
    matrix = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.6, 0.8],
            [0.0, 0.0, -1.0],
            [0.0, 0.75, 0.65],  # nephro: renal, then kidney, then disease
            [0.0, 0.75, 0.65],  # tag word: as close as it gets
        ]
    )
    return WordVectors(words, matrix, tag_words=["n18"])


class TestEq13Table:
    def test_each_vocabulary_word_is_scored_once(self, monkeypatch):
        rewriter = QueryRewriter(
            {"chronic", "kidney", "renal"}, _renal_vectors()
        )
        calls = _counting(monkeypatch, rewriter)
        for query in (["nephro", "kidney"], ["nephro"], ["disease", "nephro"]):
            tokens, _ = rewriter.rewrite(query)
            assert "renal" in tokens and "nephro" not in tokens
        # nephro and disease: one mat-vec each over three queries.
        assert calls == {"cosines": 2, "repair": 0}

    def test_typos_repair_every_time_and_share_the_table(self, monkeypatch):
        rewriter = QueryRewriter(
            {"chronic", "kidney", "renal"}, _renal_vectors()
        )
        calls = _counting(monkeypatch, rewriter)
        for _ in range(3):
            tokens, applied = rewriter.rewrite(["nefro"])
            assert tokens == ["renal"]
            assert applied == [Rewrite("nefro", "renal", "edit+embedding")]
        rewriter.rewrite(["nephro"])
        assert calls == {"cosines": 1, "repair": 3}

    def test_concurrent_callers_get_the_serial_answers(self):
        # Table entries are set without a lock: a racing fill may score a
        # word twice, but every caller must still get the serial answer.
        omega, vectors = {"chronic", "kidney", "renal"}, _renal_vectors()
        queries = [
            ["nephro", "disease"],
            ["nefro", "failure", "5"],
            ["chronic", "dissease", "nephro"],
        ]
        expected = [QueryRewriter(omega, vectors).rewrite(q) for q in queries]
        shared = QueryRewriter(omega, vectors)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(shared.rewrite, queries[i % len(queries)])
                    for i in range(300)
                ]
                results = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected[i % len(queries)] for i in range(300)]


def _renal_parts():
    ontology = Ontology()
    ontology.add(Concept("N18", "chronic kidney disease"))
    ontology.add(Concept("N18.5", "chronic kidney disease"), parent_cid="N18")
    ontology.add(Concept("N17", "renal failure"))
    ontology.add(Concept("N17.9", "renal failure"), parent_cid="N17")
    vocab = Vocabulary()
    for concept in ontology:
        vocab.add_all(concept.words)
    return ontology, KnowledgeBase(ontology), vocab


class TestSwapRebuildsTheRewriter:
    def test_rewrites_follow_the_new_omega(self, tmp_path):
        ontology, kb, vocab = _renal_parts()
        model = ComAid(ComAidConfig(dim=8, beta=2), vocab, rng=5)
        compile_artifact(tmp_path / "full", model, ontology, kb=kb)
        compile_artifact(
            tmp_path / "kidney", model, ontology, kb=kb, restrict_to=["N18.5"]
        )
        linker = NeuralConceptLinker(
            model,
            ontology,
            LinkerConfig(k=5, artifact_dir=str(tmp_path / "full")),
            kb=kb,
            word_vectors=_renal_vectors(),
        )
        before = linker.link("nephro disease")
        assert before.rewritten_tokens == ("renal", "disease")
        narrow = ConceptEngine(
            model, ontology, load_artifact(tmp_path / "kidney", model=model)
        )
        linker.swap_engine(model, narrow)
        after = linker.link("nephro disease")
        assert after.rewritten_tokens == ("kidney", "disease")
        assert after.rewrites == (Rewrite("nephro", "kidney", "embedding"),)
