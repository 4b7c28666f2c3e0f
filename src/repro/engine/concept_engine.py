"""The concept engine: linking over a compiled concept artifact.

:class:`ConceptEngine` serves the linker's two hot paths entirely from
precomputed state:

* Phase I — one TF-IDF index (:class:`~repro.core.candidates.CandidateGenerator`)
  over the artifact's frozen documents, or, in the non-exact retrieval
  modes, one sublinear index (:mod:`repro.retrieval`);
* Phase II — one lock-step decode (:meth:`repro.core.comaid.ComAid.score_batch`)
  per batch on the calling thread, gathering each row's memories by
  artifact position from the encoding slab, so the concept and
  ancestor encoders never run online.

The engine owns no thread or other resource.  A retrieval or scoring
fault propagates the original error; a scoring fault lands in the
linker's degraded-mode guard, since a partially scored ranking would
order candidates unfairly.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.candidates import CandidateGenerator
from repro.core.comaid import ComAid, ConceptEncoding, ConceptMemory
from repro.core.config import RetrievalConfig
from repro.engine.compile import ConceptArtifact
from repro.obs import trace
from repro.ontology.ontology import Ontology
from repro.retrieval.hybrid import HybridRetriever
from repro.retrieval.inverted import InvertedIndex
from repro.utils.errors import ConfigurationError, DataError
from repro.utils.faults import probe
from repro.utils.logging import get_logger

logger = get_logger("engine.concept_engine")


class ConceptEngine:
    """Linking engine over one compiled concept artifact.

    Construct from a trained model, the ontology, and a loaded
    :class:`~repro.engine.compile.ConceptArtifact` (the artifact's
    fingerprint should already have been checked against ``model`` by
    ``load_artifact``).  The engine then serves the linker's two hot
    paths: :meth:`retrieve` (Phase I) and :meth:`score_batch` (Phase
    II, one lock-step decode), both backed entirely by precompiled
    state.
    """

    def __init__(
        self,
        model: ComAid,
        ontology: Ontology,
        artifact: ConceptArtifact,
        retrieval: Optional[RetrievalConfig] = None,
    ) -> None:
        """Index the artifact's frozen documents.

        ``retrieval`` selects the Phase-I strategy
        (:class:`repro.core.config.RetrievalConfig`).  ``exact`` (the
        default) scans the TF-IDF index; ``sparse``, ``dense`` and
        ``hybrid`` serve from a sublinear index (:mod:`repro.retrieval`).
        Sparse serving prefers the artifact's precompiled index and
        falls back to freezing one at engine start; dense/hybrid
        require an artifact compiled with ``repro compile --index`` (no
        fallback — k-means training at startup would hide minutes of
        latency).
        """
        self._model = model
        self._artifact = artifact
        self._candidates = CandidateGenerator.from_documents(
            ontology, artifact.documents
        )
        self._retrieval = (
            retrieval if retrieval is not None else RetrievalConfig()
        )
        self._hybrid: Optional[HybridRetriever] = None
        if self._retrieval.mode != "exact":
            self._hybrid = self._build_retriever(self._retrieval)
        self._memory = ConceptMemory(
            artifact.final_h,
            artifact.final_c,
            artifact.states,
            artifact.state_offsets,
            artifact.structure,
        )
        # Decoder starts, filled lazily by _decoder_starts: the row of
        # the packed table holding each artifact position's start, or -1.
        dim = model.config.dim
        self._start_slot = np.full(len(artifact), -1, dtype=np.intp)
        self._starts = np.empty((0, 3 * dim + 1))
        self._starts_filled = 0
        # Eq. 9's logit bound, fixed with the weights: a swap brings a
        # new engine.
        self._logit_bound = model.logit_bound()
        self._lock = threading.Lock()
        self._retrievals = 0
        self._score_batches = 0
        self._mode_retrievals: Dict[str, int] = {
            mode: 0 for mode in ("exact", "sparse", "dense", "hybrid")
        }

    def _build_retriever(self, config: RetrievalConfig) -> HybridRetriever:
        """The sublinear retriever for non-exact modes."""
        artifact = self._artifact
        sparse = artifact.sparse_index
        if sparse is None:
            # No precompiled sparse index (compiled with --index
            # none/dense): freezing one from the frozen documents is
            # cheap relative to engine start and yields the identical
            # index.
            logger.info(
                "artifact has no precompiled sparse index; freezing one "
                "from %d documents at engine start",
                len(artifact.documents),
            )
            sparse = InvertedIndex.build(artifact.documents)
        dense = artifact.dense_index
        if config.mode in ("dense", "hybrid") and dense is None:
            raise ConfigurationError(
                f"retrieval mode {config.mode!r} needs a compiled dense "
                "index but the artifact has none; re-run `repro compile "
                "--index dense` (or --index both)"
            )
        model = self._model

        def encode_query(tokens: Sequence[str]) -> Optional[np.ndarray]:
            if not tokens:
                return None
            ids = model.words_to_ids(list(tokens))
            return model.encode_concept(ids, keep_caches=False).final_h

        return HybridRetriever(
            sparse,
            dense,
            encode_query,
            nprobe=config.nprobe,
            fusion_weight=config.fusion_weight,
            fusion_method=config.fusion_method,
        )

    # -- introspection ------------------------------------------------------

    @property
    def retrieval_mode(self) -> str:
        """The active Phase-I retrieval mode."""
        return self._retrieval.mode

    @property
    def retriever(self) -> Optional["HybridRetriever"]:
        """The sublinear retriever (None in exact mode)."""
        return self._hybrid

    @property
    def artifact(self) -> ConceptArtifact:
        """The compiled artifact backing this engine."""
        return self._artifact

    @property
    def fingerprint(self) -> str:
        """The artifact's model-weight SHA-256 (deployment identity).

        The blue/green swapper reports this before/after a flip, and
        ``/v1/metrics`` surfaces it so an operator can always tell
        *which* weights a live instance is serving.
        """
        return str(self._artifact.fingerprint.get("params_sha256", ""))

    @property
    def indexed_cids(self) -> Tuple[str, ...]:
        """All indexed concept ids in artifact order."""
        return self._artifact.cids

    @property
    def candidates(self) -> CandidateGenerator:
        """The TF-IDF generator over the artifact's frozen documents.

        The linker adopts it as its own ``candidates``, so an
        engine-backed process fits exactly one Phase-I index.
        """
        return self._candidates

    def __contains__(self, cid: str) -> bool:
        return cid in self._artifact

    def stats(self) -> Dict[str, Any]:
        """Engine counters for the serving layer's snapshot/metrics."""
        with self._lock:
            return {
                "fingerprint": self.fingerprint,
                "concepts": len(self._artifact),
                "retrievals": self._retrievals,
                "score_batches": self._score_batches,
                "retrieval_mode": self._retrieval.mode,
                "retrievals_by_mode": dict(self._mode_retrievals),
                "mmap": bool(getattr(self._artifact, "mmap", False)),
            }

    # -- precomputed encodings ----------------------------------------------

    def encoding_of(self, cid: str) -> ConceptEncoding:
        """The precompiled encoding for ``cid`` (zero-copy views)."""
        return self._artifact.encoding_of(cid)

    def structure_memory_of(
        self, cid: str
    ) -> Union[np.ndarray, List[ConceptEncoding]]:
        """Precomputed ``(beta, dim)`` structure memory, or ``[]``.

        The empty-list form is what :meth:`ComAid.score_batch` expects
        for models without structure attention, so the return value can
        be passed straight through as a candidate's ``ancestors``.
        """
        memory = self._artifact.structure_memory_of(cid)
        return memory if memory is not None else []

    # -- Phase I: retrieval --------------------------------------------------

    def retrieve(
        self, tokens: Sequence[str], k: int
    ) -> List[Tuple[str, float]]:
        """Top-``k`` candidates for ``tokens`` under the retrieval mode.

        ``exact`` scans the TF-IDF index; the non-exact modes
        (``sparse``/``dense``/``hybrid``) answer from the sublinear
        retriever.  Either way the call is one ``engine.retrieve`` span
        (phase CR, tagged with the mode).  A fault propagates.
        """
        mode = self._retrieval.mode
        with self._lock:
            self._retrievals += 1
            self._mode_retrievals[mode] += 1
        with trace.span("engine.retrieve", phase="CR", mode=mode, k=k) as span:
            probe("engine.retrieve")
            if self._hybrid is None:
                hits = self._candidates.generate(tokens, k)
            elif mode == "sparse":
                hits = [
                    (match.key, match.score)
                    for match in self._hybrid.sparse.search(
                        tokens,
                        k,
                        max_postings_per_term=(
                            self._retrieval.max_postings_per_term
                        ),
                    )
                ]
            else:
                hits = [
                    (match.key, match.score)
                    for match in self._hybrid.search(tokens, k, mode=mode)
                ]
            span.set_tag("candidates", len(hits))
            return hits

    # -- Phase II: batched scoring ------------------------------------------

    def score_batch(
        self,
        query_ids: Sequence[Sequence[int]],
        cids: Sequence[str],
    ) -> np.ndarray:
        """``log p(q_j | c_j)`` for each candidate, in one decode.

        Drop-in for :meth:`ComAid.score_batch` with concept ids instead
        of encoding pairs: the whole batch runs as one lock-step decode
        on the calling thread over the precomputed slab.  Each cid's
        artifact position is looked up once; every row's decoder start
        (step 0, computed once per concept by :meth:`_decoder_starts`)
        and its text and structure memories are then gathered by
        position, so no per-row :class:`ConceptEncoding` is built.
        Every cid must be in the artifact (``DataError`` otherwise).  A
        failure propagates — a partially scored ranking would be
        unfairly ordered — and is handled by the linker's degraded-mode
        guard.
        """
        if len(query_ids) != len(cids):
            raise DataError(
                f"got {len(query_ids)} query sequences for "
                f"{len(cids)} candidates"
            )
        with self._lock:
            self._score_batches += 1
        if not cids:
            return np.zeros(0, dtype=np.float64)
        with trace.span("engine.phase2", phase="ED", batch=len(cids)):
            probe("engine.score")
            position_of = self._artifact.position_of
            positions = np.fromiter(
                (position_of(cid) for cid in cids), np.intp, len(cids)
            )
            starts = self._decoder_starts(positions)
            dim = self._model.config.dim
            return self._model.score_from_starts(
                query_ids,
                (
                    starts[:, :dim],
                    starts[:, dim : 2 * dim],
                    starts[:, 2 * dim : 3 * dim],
                    starts[:, 3 * dim],
                ),
                self._memory,
                positions,
                self._logit_bound,
            )

    def _decoder_starts(self, positions: np.ndarray) -> np.ndarray:
        """Each row's packed ``[h_1 | c_1 | s̃_0 | log Z_0]`` start.

        Step 0 of a decode depends only on the concept, so each
        concept's start is computed once — the first time a decode
        touches it — and kept for the engine's lifetime.  The table
        grows with the concepts actually served: ``load_linker`` pays
        nothing, and an eager table over every compiled concept would
        cost ``(3d + 1) × 8`` bytes per concept per process.
        """
        with self._lock:
            slots = self._start_slot[positions]
            missing = np.unique(positions[slots < 0])
            if missing.size:
                block = np.column_stack(
                    self._model.decoder_start(self._memory, missing)
                )
                filled = self._starts_filled
                needed = filled + missing.size
                if needed > self._starts.shape[0]:
                    grown = np.empty(
                        (max(needed, 2 * self._starts.shape[0]), block.shape[1])
                    )
                    grown[:filled] = self._starts[:filled]
                    self._starts = grown
                self._starts[filled:needed] = block
                self._start_slot[missing] = np.arange(filled, needed)
                self._starts_filled = needed
                slots = self._start_slot[positions]
            return self._starts[slots]
