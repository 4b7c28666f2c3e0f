"""The two-phase online concept linker (paper Section 5).

Phase I — generate candidates: rewrite OOV query words (OR), then
retrieve the top-``k`` fine-grained concepts from the TF-IDF keyword
index (CR).

Phase II — re-rank with COM-AID: for each candidate, compute
``log p(q|c; Θ)`` with the trained model (ED), after temporarily
removing the words the query shares with the candidate's canonical
description; rank by score (RT).  Every candidate of every query in a
batch — a single query is a batch of one — is scored by one lock-step
decode (:meth:`repro.engine.concept_engine.ConceptEngine.score_batch`)
instead of one decode per candidate: identical rankings, ~an order
less Python/matvec overhead on the Figure 11 "ED" bottleneck.

Timing of the four parts (OR/CR/ED/RT) is recorded per query, which is
exactly the decomposition the paper's Figure 11 reports.  Every linker
links through one :class:`repro.engine.concept_engine.ConceptEngine`:
the concept encodings are computed once, by a compiled artifact loaded
from ``LinkerConfig.artifact_dir`` or built in memory at construction,
so the concept and ancestor encoders never run online.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.core.comaid import ComAid
from repro.core.config import LinkerConfig
from repro.core.rewriter import QueryRewriter, Rewrite
from repro.embeddings.similarity import WordVectors
from repro.kb.knowledge_base import KnowledgeBase
from repro.obs import trace
from repro.ontology.ontology import Ontology
from repro.text.tokenize import tokenize
from repro.utils.errors import ConfigurationError
from repro.utils.faults import probe
from repro.utils.logging import get_logger
from repro.utils.timing import PhaseTimer, TimingBreakdown

logger = get_logger("core.linker")


@dataclass(frozen=True)
class RankedConcept:
    """One re-ranked candidate: cid, COM-AID log-prob, keyword score."""

    cid: str
    log_prob: float
    keyword_score: float

    @property
    def loss(self) -> float:
        """The paper's ``Loss = -log p(q|c;Θ)`` (Appendix A)."""
        return -self.log_prob


@dataclass
class LinkResult:
    """Outcome of linking one query.

    ``degraded=True`` marks a result whose ranking is Phase I keyword
    order only (the paper's Section 5 keyword matcher): Phase II either
    raised or overran its per-query budget, so COM-AID scores are
    absent and every ``log_prob`` is ``-inf``.  ``degraded_reason``
    says which (``"error: …"`` or ``"budget: …"``).
    """

    query: str
    tokens: Tuple[str, ...]
    rewritten_tokens: Tuple[str, ...]
    rewrites: Tuple[Rewrite, ...]
    ranked: Tuple[RankedConcept, ...]
    timing: TimingBreakdown = field(default_factory=TimingBreakdown)
    degraded: bool = False
    degraded_reason: Optional[str] = None

    @property
    def top(self) -> Optional[RankedConcept]:
        return self.ranked[0] if self.ranked else None

    def rank_of(self, cid: str) -> Optional[int]:
        """1-based rank of ``cid`` in the result, or None if absent."""
        for position, candidate in enumerate(self.ranked, start=1):
            if candidate.cid == cid:
                return position
        return None


@dataclass
class _PreparedQuery:
    """Phase-I output for one query, awaiting Phase-II scoring."""

    query: str
    tokens: Tuple[str, ...]
    rewritten: Tuple[str, ...]
    rewrites: Tuple[Rewrite, ...]
    keyword_hits: List[Tuple[str, float]]
    timer: PhaseTimer


class NeuralConceptLinker:
    """NCL online linking: Phase I retrieval + Phase II COM-AID re-ranking."""

    def __init__(
        self,
        model: ComAid,
        ontology: Ontology,
        config: Optional[LinkerConfig] = None,
        kb: Optional[KnowledgeBase] = None,
        word_vectors: Optional[WordVectors] = None,
        restrict_to: Optional[Sequence[str]] = None,
        priors: Optional[Dict[str, float]] = None,
        engine: Optional[object] = None,
    ) -> None:
        """Two-phase linker.

        ``priors`` enables the MAP variant the paper offers in Section
        5 (Eq. 11): a non-uniform prior ``p(c)`` over fine-grained
        concepts (e.g. historical coding frequencies).  Candidates are
        then ranked by ``log p(q|c) + log p(c)``; omitted, the prior is
        uniform and ranking reduces to MLE (Eq. 12).  Priors must be
        positive; they are normalised internally, and every supplied
        cid must exist in the ontology.

        ``engine`` injects a pre-built
        :class:`repro.engine.concept_engine.ConceptEngine`.  Without
        one, ``config.artifact_dir`` (if set) loads the compiled
        artifact — fingerprint-checked against ``model`` — and
        otherwise the artifact is built in memory over ``kb`` and
        ``restrict_to`` (:meth:`_build_engine`).  Phase I runs on the
        engine's index (adopted as ``self.candidates``, so one index is
        held) and Phase II scores from its precomputed encodings.
        """
        self.model = model
        self.ontology = ontology
        self.config = config if config is not None else LinkerConfig()
        # Retained so swap_engine can rebuild the rewriter and scoring
        # vocabulary over the new model's frozen documents.
        self._kb = kb
        self._word_vectors = word_vectors
        self._restrict_to = restrict_to
        if engine is None:
            engine = self._build_engine(model, self.config)
        self._engine = engine
        self._log_priors: Optional[Dict[str, float]] = None
        if priors is not None:
            if not priors:
                raise ConfigurationError("priors mapping is empty")
            total = 0.0
            for cid, mass in priors.items():
                ontology.get(cid)  # raises for unknown cids
                if mass <= 0:
                    raise ConfigurationError(
                        f"prior for {cid!r} must be positive, got {mass}"
                    )
                total += mass
            self._log_priors = {
                cid: math.log(mass / total) for cid, mass in priors.items()
            }
        self._derive_from_engine()
        #: Provenance from the deployment manifest (seed, resume point,
        #: training losses …); populated by ``load_pipeline`` and
        #: surfaced by the serving layer's ``/metrics``.
        self.pipeline_metadata: Dict[str, Any] = {}

    # -- engine --------------------------------------------------------------

    @property
    def engine(self) -> Any:
        """The concept engine every link goes through."""
        return self._engine

    @property
    def model_fingerprint(self) -> str:
        """SHA-256 identity of the weights currently serving (from the
        engine's artifact, so free)."""
        return str(self._engine.fingerprint)

    def swap_engine(
        self,
        model: ComAid,
        engine: Optional[object],
        artifact_dir: Optional[str] = None,
    ) -> Tuple[ComAid, Any]:
        """Blue/green flip: adopt new weights and their compiled engine.

        ``engine`` ``None`` builds one for ``model`` from the config —
        loading ``artifact_dir`` (or the configured one), else compiling
        in memory — which is how an in-place retrain (Figure 10's
        feedback loop) takes effect.  Replaces the model and engine
        pointers and rebuilds everything derived from them — Phase-I
        candidates (the new engine's index over its artifact's frozen
        documents), the OOV rewriter (so the old Ω's Eq. 13 table is
        dropped) and the scoring vocabulary.  Returns the previous
        ``(model, engine)`` so the caller can roll back by swapping
        them straight back in.

        The flip itself is plain attribute assignment; the serving
        layer guarantees atomicity by performing it under the same lock
        that serialises batch scoring (``LinkingService.exclusive``),
        so in-flight requests complete on the old engine and queued
        ones start on the new.
        """
        config = self.config
        if artifact_dir is not None:
            config = dataclasses.replace(
                config, artifact_dir=str(artifact_dir)
            )
        if engine is None:
            engine = self._build_engine(model, config)
        else:
            # Never flip to an engine whose artifact was compiled from
            # other weights — the same stale-artifact guard load-time
            # enforcement gives, re-checked at the swap boundary.
            engine.artifact.check_model(model)
            if engine.artifact.index_aliases != config.index_aliases:
                raise ConfigurationError(
                    "candidate artifact was compiled with index_aliases="
                    f"{engine.artifact.index_aliases} but the linker is "
                    f"configured with {config.index_aliases}"
                )
        previous = (self.model, self._engine)
        self.model = model
        self._engine = engine
        self.config = config
        self._derive_from_engine()
        return previous

    def _build_engine(self, model: ComAid, config: LinkerConfig) -> Any:
        """The one place a linker's engine is made: over the artifact in
        ``config.artifact_dir`` (fingerprint-checked against ``model``),
        or else over one built in memory from the ontology, ``kb`` and
        ``restrict_to``."""
        # Engine imports stay function-local: repro.engine imports
        # repro.core.candidates, whose package imports this module.
        from repro.engine.compile import build_artifact, load_artifact
        from repro.engine.concept_engine import ConceptEngine

        if config.artifact_dir is None:
            artifact = build_artifact(
                model,
                self.ontology,
                kb=self._kb,
                index_aliases=config.index_aliases,
                restrict_to=self._restrict_to,
                index="sparse",
            )
        else:
            if self._restrict_to is not None:
                raise ConfigurationError(
                    "restrict_to cannot be combined with artifact_dir: the "
                    "compiled artifact fixes the indexed concept set"
                )
            artifact = load_artifact(
                config.artifact_dir, model=model, mmap=config.mmap_artifact
            )
            if artifact.index_aliases != config.index_aliases:
                raise ConfigurationError(
                    f"artifact was compiled with index_aliases="
                    f"{artifact.index_aliases} but the linker is configured "
                    f"with index_aliases={config.index_aliases}; "
                    "recompile or align the config"
                )
        return ConceptEngine(
            model,
            self.ontology,
            artifact,
            retrieval_mode=config.retrieval_mode,
        )

    def _derive_from_engine(self) -> None:
        """Build everything that follows from the active engine: Phase-I
        candidates (and so Ω), the OOV rewriter (and so its Eq. 13
        table), the scoring vocabulary and a fresh table of
        description-word sets.  Construction and :meth:`swap_engine`
        both call this, so a swap rebuilds them in exactly one place."""
        # The engine's generator indexes the artifact's *frozen*
        # documents (not live ontology + KB state), so Ω and any direct
        # `candidates` use can never drift from what the engine serves.
        self.candidates = self._engine.candidates
        omega = self.candidates.omega  # a fresh copy
        self.rewriter: Optional[QueryRewriter] = (
            QueryRewriter(
                omega,
                word_vectors=self._word_vectors,
                edit_distance_max=self.config.edit_distance_max,
                min_similarity=self.config.rewrite_min_similarity,
            )
            if self.config.rewrite_queries
            else None
        )
        # Scoring vocabulary: Ω plus alias words — exactly the words the
        # decoder saw as training targets, i.e. the words whose decode
        # probabilities carry learned signal.
        # The rewriter holds its own copy of Ω, so ``omega`` can grow.
        if self._kb is not None:
            for _, alias in self._kb.labeled_snippets():
                omega.update(tokenize(alias))
        self._scoring_vocabulary = omega
        self._description_words_of: Dict[str, FrozenSet[str]] = {}

    def warm_cache(self, cids: Optional[Sequence[str]] = None) -> int:
        """Touch each concept's precompiled state (all indexed concepts
        by default) — the serving layer's warm-up, which pages in a
        memory-mapped slab.  Returns how many concepts were touched."""
        targets = cids if cids is not None else self.candidates.indexed_cids
        artifact = self._engine.artifact
        touched = 0
        for cid in targets:
            artifact.encoding_of(cid)
            artifact.structure_memory_of(cid)
            touched += 1
        return touched

    # -- linking -----------------------------------------------------------------

    def link(self, query: str, k: Optional[int] = None) -> LinkResult:
        """Link ``query`` to its top fine-grained concepts."""
        return self.link_batch([query], k)[0]

    def link_batch(
        self,
        queries: Sequence[str],
        k: Union[None, int, Sequence[Optional[int]]] = None,
        trace_contexts: Optional[Sequence[object]] = None,
    ) -> List[LinkResult]:
        """Link several queries with one fused Phase-II decode.

        Phase I (OR + CR) runs for every query first, then every
        query's candidates are scored by a single lock-step decode
        (:meth:`_phase_two`) — one GEMM per decoder timestep over the
        whole batch, with concept encodings looked up once per
        candidate.  Rankings are identical to calling :meth:`link` per
        query in any order; batching changes the work schedule, not the
        scores.

        ``k`` may be a single value for the whole batch or one
        (possibly ``None``) entry per query.

        ``trace_contexts`` carries one (possibly ``None``) span per
        query: this method typically runs on the serving dispatcher's
        thread, where the submitting request's trace context is not
        ambient, so the serving layer captures each request's span at
        submit time and the per-query work here re-enters it — nesting
        the linker's spans under the right request even though requests
        from several traces share one batch.
        """
        if isinstance(k, (list, tuple)):
            if len(k) != len(queries):
                raise ConfigurationError(
                    f"got {len(k)} k values for {len(queries)} queries"
                )
            top_ks = [self._resolve_k(value) for value in k]
        else:
            top_ks = [self._resolve_k(k)] * len(queries)
        if trace_contexts is not None and len(trace_contexts) != len(queries):
            raise ConfigurationError(
                f"got {len(trace_contexts)} trace contexts for "
                f"{len(queries)} queries"
            )
        contexts: Sequence[object] = (
            trace_contexts
            if trace_contexts is not None
            else [None] * len(queries)
        )
        prepared = []
        for query, top_k, context in zip(queries, top_ks, contexts):
            with trace.attach(context):
                prepared.append(self._phase_one(query, top_k))
        return self._phase_two(prepared, contexts)

    def _resolve_k(self, k: Optional[int]) -> int:
        top_k = k if k is not None else self.config.k
        if top_k < 1:
            raise ConfigurationError(f"k must be >= 1, got {top_k}")
        return top_k

    def _phase_one(self, query: str, top_k: int) -> "_PreparedQuery":
        """Phase I: tokenize, rewrite OOV words (OR), retrieve (CR)."""
        timer = PhaseTimer()
        tokens = tuple(tokenize(query))
        rewrites: Tuple[Rewrite, ...] = ()
        rewritten = tokens
        with timer.phase("OR"), trace.span(
            "linker.rewrite", phase="OR"
        ) as span:
            if self.rewriter is not None and tokens:
                rewritten_list, applied = self.rewriter.rewrite(tokens)
                rewritten = tuple(rewritten_list)
                rewrites = tuple(applied)
                if applied:
                    span.set_tag("rewrites", len(applied))
        with timer.phase("CR"), trace.span(
            "linker.retrieve", phase="CR", k=top_k
        ) as span:
            if not rewritten:
                keyword_hits = []
            else:
                keyword_hits = self._engine.retrieve(rewritten, top_k)
            span.set_tag("candidates", len(keyword_hits))
        return _PreparedQuery(
            query=query,
            tokens=tokens,
            rewritten=rewritten,
            rewrites=rewrites,
            keyword_hits=keyword_hits,
            timer=timer,
        )

    def _ranked_result(
        self, prepared: "_PreparedQuery", scored: List[RankedConcept]
    ) -> LinkResult:
        """Phase RT: sort scored candidates (MAP-aware) into a result."""
        timer = prepared.timer
        with timer.phase("RT"), trace.span(
            "linker.rerank", phase="RT", results=len(scored)
        ):
            if self._log_priors is not None:
                log_priors = self._log_priors
                floor = min(log_priors.values())
                scored.sort(
                    key=lambda item: (
                        -(item.log_prob + log_priors.get(item.cid, floor)),
                        -item.keyword_score,
                    )
                )
            else:
                scored.sort(
                    key=lambda item: (-item.log_prob, -item.keyword_score)
                )
        return LinkResult(
            query=prepared.query,
            tokens=prepared.tokens,
            rewritten_tokens=prepared.rewritten,
            rewrites=prepared.rewrites,
            ranked=tuple(scored),
            timing=timer.breakdown,
        )

    def _phase_two(
        self,
        prepared_list: List["_PreparedQuery"],
        contexts: Sequence[object],
    ) -> List[LinkResult]:
        """Phase II: COM-AID scoring (ED) and ranking (RT) for a batch.

        Every query's surviving candidates are concatenated into one
        lock-step ``score_batch`` decode — one GEMM per decoder timestep
        over the union of candidates, whether the batch holds one query
        or many.  A candidate's row is its query's scoring-token ids
        (:meth:`_scoring_tokens`, encoded once per query) minus the
        words of its canonical description (Section 5's shared-word
        removal, :meth:`_description_words`): shared words are
        trivially decodable, so scoring concentrates on the discrepant
        words.  A candidate left with no word is fully covered by its
        description and scores log-probability 0, the maximum, without
        running the model.  ``score_batch`` rows are batch-composition
        independent, so each query's scores match the per-candidate
        reference (``model.score_with_encodings``) to ≤1e-9 whatever it
        was batched with.  The shared decode's wall time is attributed to the first
        query with candidates in it — splitting it would fabricate
        per-query latencies for work that was done once — and its
        ``linker.phase2.decode`` span nests under that query's
        ``linker.phase2`` span.

        Phase II is guarded per query: when assembling a query's
        candidates raises (and ``degrade_on_error`` is set) or overruns
        ``phase2_budget_s``, that query degrades to its Phase I keyword
        ranking and its candidates leave the decode — Phase I is already
        computed and a keyword-ranked answer beats an error for an
        interactive clinical user.  A failed decode degrades every query
        that had candidates in it; the decode is all-or-nothing, so a
        budget overrun inside it is detected after it returns, and only
        for the queries that had candidates in it — a query's budget
        covers the shared decode it rode in, never one it had no part in.
        """
        config = self.config
        budget = config.phase2_budget_s
        remove_shared = config.remove_shared_words
        deadlines: List[Optional[float]] = []
        degraded: List[Optional[str]] = [None] * len(prepared_list)
        ed_spans: List[Any] = []
        # A candidate fully covered by its description keeps 0.0.
        log_probs: List[List[float]] = []
        # The decode's rows: each row's word ids and cid, and the query
        # and hit index its score belongs to.
        pending_ids: List[List[int]] = []
        pending_cids: List[str] = []
        pending_query: List[int] = []
        pending_index: List[int] = []
        description_words = self._description_words_of
        try:
            for qi, prepared in enumerate(prepared_list):
                hits = prepared.keyword_hits
                log_probs.append([0.0] * len(hits))
                with trace.attach(contexts[qi]):
                    ed_span = trace.start_span(
                        "linker.phase2", phase="ED", candidates=len(hits)
                    )
                ed_spans.append(ed_span)
                deadline = (time.monotonic() + budget) if budget > 0 else None
                deadlines.append(deadline)
                start = len(pending_ids)
                with prepared.timer.phase("ED"), trace.attach(ed_span):
                    try:
                        scoring = self._scoring_tokens(prepared.rewritten)
                        scoring_ids = self.model.words_to_ids(scoring)
                        encoded = list(zip(scoring, scoring_ids))
                        for index, (cid, _) in enumerate(hits):
                            probe("linker.phase2")
                            if (
                                deadline is not None
                                and time.monotonic() > deadline
                            ):
                                degraded[qi] = (
                                    f"budget: phase2 exceeded {budget:.3f}s "
                                    f"after {index}/{len(hits)} candidates"
                                )
                                break
                            if remove_shared:
                                shared = description_words.get(cid)
                                if shared is None:
                                    shared = self._description_words(cid)
                                ids = [
                                    i for tok, i in encoded if tok not in shared
                                ]
                            else:
                                ids = scoring_ids
                            if ids:
                                pending_ids.append(ids)
                                pending_cids.append(cid)
                                pending_query.append(qi)
                                pending_index.append(index)
                    except Exception as error:  # noqa: BLE001 - degraded-mode guard
                        if not config.degrade_on_error:
                            raise
                        degraded[qi] = self._failure_reason(
                            prepared.query, error
                        )
                if degraded[qi] is not None:
                    # A degraded query serves its keyword ranking; its
                    # queued candidates must not ride along in the decode.
                    del pending_ids[start:]
                    del pending_cids[start:]
                    del pending_query[start:]
                    del pending_index[start:]
            decoded = set(pending_query)
            if pending_ids:
                first = pending_query[0]
                timer = prepared_list[first].timer
                try:
                    with timer.phase("ED"), trace.attach(ed_spans[first]):
                        probe("linker.phase2.batch")
                        with trace.span(
                            "linker.phase2.decode",
                            phase="ED",
                            batch=len(pending_ids),
                            fused_queries=len(decoded),
                        ):
                            scores = self._engine.score_batch(
                                pending_ids, pending_cids
                            )
                except Exception as error:  # noqa: BLE001 - degraded-mode guard
                    if not config.degrade_on_error:
                        raise
                    reason = self._failure_reason(
                        prepared_list[first].query, error
                    )
                    for qi in decoded:
                        degraded[qi] = reason
                else:
                    for qi, index, score in zip(
                        pending_query, pending_index, scores.tolist()
                    ):
                        log_probs[qi][index] = score
            now = time.monotonic()
            for qi in decoded:
                deadline = deadlines[qi]
                if deadline is not None and now > deadline and not degraded[qi]:
                    degraded[qi] = (
                        f"budget: phase2 exceeded {budget:.3f}s scoring "
                        f"{len(pending_ids)} candidates in one batch"
                    )
        finally:
            for ed_span, reason in zip(ed_spans, degraded):
                if reason is not None:
                    ed_span.set_tag("degraded_reason", reason)
                ed_span.end()
        results: List[LinkResult] = []
        for qi, prepared in enumerate(prepared_list):
            with trace.attach(contexts[qi]):
                if degraded[qi] is not None:
                    results.append(
                        self._degraded_result(prepared, degraded[qi])
                    )
                    continue
                scored = [
                    RankedConcept(cid, log_prob, keyword_score)
                    for (cid, keyword_score), log_prob in zip(
                        prepared.keyword_hits, log_probs[qi]
                    )
                ]
                results.append(self._ranked_result(prepared, scored))
        return results

    @staticmethod
    def _failure_reason(query: str, error: Exception) -> str:
        """The ``degraded_reason`` for a Phase-II failure, logged once."""
        logger.warning(
            "phase2 failed for %r; serving keyword ranking: %s", query, error
        )
        return f"error: {type(error).__name__}: {error}"

    def _degraded_result(
        self, prepared: "_PreparedQuery", reason: str
    ) -> LinkResult:
        """Phase I fallback: keyword ranking only, tagged ``degraded``."""
        with prepared.timer.phase("RT"), trace.span(
            "linker.rerank", phase="RT", degraded=True
        ):
            ranked = tuple(
                RankedConcept(
                    cid=cid, log_prob=-math.inf, keyword_score=keyword_score
                )
                for cid, keyword_score in sorted(
                    prepared.keyword_hits,
                    key=lambda hit: (-hit[1], hit[0]),
                )
            )
        return LinkResult(
            query=prepared.query,
            tokens=prepared.tokens,
            rewritten_tokens=prepared.rewritten,
            rewrites=prepared.rewrites,
            ranked=ranked,
            timing=prepared.timer.breakdown,
            degraded=True,
            degraded_reason=reason,
        )

    def _scoring_tokens(self, query_tokens: Sequence[str]) -> List[str]:
        """The query words Phase II may decode, for any candidate.

        With ``score_omega_only`` (default), words outside the scoring
        vocabulary (Ω plus knowledge-base alias words — the decoder's
        training targets) are excluded: after rewriting, a surviving
        word outside that set is one with no semantic counterpart among
        the concepts (a clinical decoration), and its decode probability
        is untrained noise that differs arbitrarily across candidates.
        Numeric tokens are always kept — stage/type numbers are
        load-bearing.  When nothing survives, every token is kept.  The
        filter depends on the query alone, so it runs once per query.
        """
        tokens = list(query_tokens)
        if not self.config.score_omega_only:
            return tokens
        vocabulary = self._scoring_vocabulary
        kept = [
            token
            for token in tokens
            if token in vocabulary or any(char.isdigit() for char in token)
        ]
        return kept or tokens

    def _description_words(self, cid: str) -> FrozenSet[str]:
        """The words of ``cid``'s canonical description, as a frozenset.

        Built the first time a candidate needs it and kept, at most one
        per ontology concept; :meth:`_derive_from_engine` starts a new
        table.
        """
        words = self._description_words_of.get(cid)
        if words is None:
            words = frozenset(self.ontology.get(cid).words)
            self._description_words_of[cid] = words
        return words
