"""The concept engine: linking over a compiled concept artifact.

Every :class:`~repro.core.linker.NeuralConceptLinker` links through one
:class:`ConceptEngine`, over an artifact loaded from disk or built in
memory (:mod:`repro.engine.compile`).  The engine serves the linker's
two hot paths entirely from precomputed state:

* Phase I — one TF-IDF inverted index
  (:class:`~repro.core.candidates.CandidateGenerator`) over the
  artifact's frozen documents — the artifact's precompiled index when
  it has one — which ``hybrid`` retrieval (:mod:`repro.retrieval`)
  shares as its sparse side;
* Phase II — one lock-step decode
  (:meth:`repro.core.comaid.ComAid.score_from_starts`) per batch on
  the calling thread, gathering each row's memories by
  artifact position from the encoding slab, so the concept and
  ancestor encoders never run online.

The engine owns no thread or other resource.  A retrieval or scoring
fault propagates the original error; a scoring fault lands in the
linker's degraded-mode guard, since a partially scored ranking would
order candidates unfairly.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.candidates import CandidateGenerator
from repro.core.comaid import ComAid, ConceptMemory
from repro.core.config import check_retrieval_mode
from repro.engine.compile import ConceptArtifact
from repro.obs import trace
from repro.ontology.ontology import Ontology
from repro.retrieval.hybrid import HybridRetriever
from repro.utils.errors import ConfigurationError, DataError
from repro.utils.faults import probe


class ConceptEngine:
    """Linking engine over one compiled concept artifact.

    Construct from a trained model, the ontology, and a
    :class:`~repro.engine.compile.ConceptArtifact` built from that
    model (``build_artifact``, or ``load_artifact`` with the
    fingerprint checked against ``model``).  The engine then serves
    the linker's two hot paths: :meth:`retrieve` (Phase I) and
    :meth:`score_batch` (Phase II, one lock-step decode), both backed
    entirely by precompiled state.
    """

    def __init__(
        self,
        model: ComAid,
        ontology: Ontology,
        artifact: ConceptArtifact,
        retrieval_mode: str = "exact",
    ) -> None:
        """Index the artifact's frozen documents.

        ``retrieval_mode`` selects the Phase-I strategy.  ``exact`` (the
        default) searches the one inverted index — the artifact's
        precompiled one, or one frozen from its documents at engine
        start; ``hybrid`` fuses it with the dense index and requires an
        artifact compiled with ``repro compile --index dense`` or
        ``both`` (no fallback — k-means training at startup would hide
        minutes of latency).
        """
        check_retrieval_mode(retrieval_mode)
        self._model = model
        self._artifact = artifact
        self._candidates = CandidateGenerator.from_documents(
            ontology, artifact.documents, index=artifact.sparse_index
        )
        self._mode = retrieval_mode
        self._hybrid: Optional[HybridRetriever] = None
        if retrieval_mode == "hybrid":
            self._hybrid = self._build_retriever()
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
        # The decode's weight layout and Eq. 9's logit bound, fixed
        # with the weights: a swap brings a new engine.
        self._decode_weights = model.decode_weights()
        self._lock = threading.Lock()
        self._retrievals = 0
        self._score_batches = 0

    def _build_retriever(self) -> HybridRetriever:
        """The hybrid retriever, over the same inverted index exact mode
        searches."""
        dense = self._artifact.dense_index
        if dense is None:
            raise ConfigurationError(
                "retrieval mode 'hybrid' needs a compiled dense index but "
                "the artifact has none; re-run `repro compile --index "
                "dense` (or --index both)"
            )
        model = self._model

        def encode_query(tokens: Sequence[str]) -> Optional[np.ndarray]:
            if not tokens:
                return None
            ids = model.words_to_ids(list(tokens))
            return model.encode_concept(ids, keep_caches=False).final_h

        return HybridRetriever(self._candidates.index, dense, encode_query)

    # -- introspection ------------------------------------------------------

    @property
    def retrieval_mode(self) -> str:
        """The active Phase-I retrieval mode."""
        return self._mode

    @property
    def retriever(self) -> Optional["HybridRetriever"]:
        """The hybrid retriever (None in exact mode)."""
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

        The linker adopts it as its own ``candidates``, so a process
        holds exactly one exact Phase-I index.
        """
        return self._candidates

    def stats(self) -> Dict[str, Any]:
        """Engine counters for the serving layer's snapshot/metrics."""
        with self._lock:
            return {
                "fingerprint": self.fingerprint,
                "concepts": len(self._artifact),
                "retrievals": self._retrievals,
                "score_batches": self._score_batches,
                "retrieval_mode": self._mode,
                "mmap": bool(getattr(self._artifact, "mmap", False)),
            }

    # -- Phase I: retrieval --------------------------------------------------

    def retrieve(
        self, tokens: Sequence[str], k: int
    ) -> List[Tuple[str, float]]:
        """Top-``k`` candidates for ``tokens`` under the retrieval mode.

        ``exact`` searches the inverted index; ``hybrid`` answers from
        the hybrid retriever built over that same index.  Either way
        the call is one ``engine.retrieve`` span (phase CR, tagged with
        the mode).  A fault propagates.
        """
        with self._lock:
            self._retrievals += 1
        with trace.span(
            "engine.retrieve", phase="CR", mode=self._mode, k=k
        ) as span:
            probe("engine.retrieve")
            if self._hybrid is None:
                hits = self._candidates.generate(tokens, k)
            else:
                hits = [
                    (match.key, match.score)
                    for match in self._hybrid.search(tokens, k)
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
            positions = np.fromiter(map(position_of, cids), np.intp, len(cids))
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
                self._decode_weights,
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
