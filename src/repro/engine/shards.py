"""Sharded scatter-gather linking over a compiled concept artifact.

The concept space is partitioned round-robin (by compiled position)
into ``S`` shards.  Each shard owns

* a Phase-I TF-IDF index over its slice of the frozen artifact
  documents, fitted with the **global** corpus statistics so its
  cosines are bit-identical to a monolithic index's (see
  :class:`repro.text.tfidf.CorpusStats`), and
* zero-copy views into the artifact's precomputed encoding slab, so
  Phase-II scoring never runs the concept or ancestor encoders online.

Phase I scatters a query to every shard, gathers each shard's local
top-k, and merges on ``(-score, global_position)`` — exactly the
monolithic index's tie-break — so the merged ranking equals the
unsharded one.  Phase II does not scatter: a batch's candidates, from
whichever shards, are scored by one lock-step decode
(:meth:`repro.core.comaid.ComAid.score_batch`) on the calling thread.
The decode's cost is dominated by the ``|V|``-wide output layer over
the rows still decoding, which splitting does not reduce, so S smaller
decodes plus S pool hops cost more than one decode.

Shard retrieval executes on a persistent thread pool (``S`` workers):
the indexes are shared memory, so threads — not processes — are the
right executor here.  ``S=1`` runs everything inline on the calling
thread.  A shard that fails during retrieval is skipped (partial
gather, counted in :meth:`ShardedConceptEngine.stats`); only when
*every* shard fails does retrieval raise :class:`ShardFailure`.
Scoring failures always propagate — a partially-scored ranking would
order candidates unfairly — and land in the linker's degraded-mode
guard.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.candidates import CandidateGenerator
from repro.core.comaid import ComAid, ConceptEncoding
from repro.core.config import RetrievalConfig
from repro.engine.compile import ConceptArtifact
from repro.obs import trace
from repro.ontology.ontology import Ontology
from repro.retrieval.hybrid import HybridRetriever
from repro.retrieval.inverted import InvertedIndex
from repro.utils.errors import ConfigurationError, DataError, ReproError
from repro.utils.faults import probe
from repro.utils.logging import get_logger

logger = get_logger("engine.shards")


class ShardFailure(ReproError):
    """Every shard failed to answer a scatter-gather retrieval."""


class ShardedConceptEngine:
    """Scatter-gather linking engine over ``S`` concept shards.

    Construct from a trained model, the ontology, and a loaded
    :class:`~repro.engine.compile.ConceptArtifact` (the artifact's
    fingerprint should already have been checked against ``model`` by
    ``load_artifact``).  The engine then serves the linker's two hot
    paths: :meth:`retrieve` (Phase I, scatter-gather) and
    :meth:`score_batch` (Phase II, one lock-step decode), both
    backed entirely by precompiled state.
    """

    def __init__(
        self,
        model: ComAid,
        ontology: Ontology,
        artifact: ConceptArtifact,
        shards: int = 1,
        retrieval: Optional[RetrievalConfig] = None,
    ) -> None:
        """Partition the artifact's concepts into ``shards`` shards.

        ``retrieval`` selects the Phase-I strategy
        (:class:`repro.core.config.RetrievalConfig`).  ``exact`` (the
        default) scatter-gathers per-shard TF-IDF scans; ``sparse``,
        ``dense`` and ``hybrid`` serve from one *global* sublinear
        index (:mod:`repro.retrieval`) — the inverted index is already
        sub-O(N) per query, so sharding it buys nothing.  Sparse serving
        prefers the artifact's precompiled index and falls back to
        freezing one at engine start; dense/hybrid require an artifact
        compiled with ``repro compile --index`` (no fallback — k-means
        training at startup would hide minutes of latency).
        """
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if shards > len(artifact):
            raise ConfigurationError(
                f"cannot split {len(artifact)} concepts into {shards} "
                "shards (at least one shard would be empty)"
            )
        self._model = model
        self._ontology = ontology
        self._artifact = artifact
        self._shards = shards
        stats = artifact.corpus_stats
        shard_documents: List[List[Tuple[str, List[str]]]] = [
            [] for _ in range(shards)
        ]
        self._shard_of: Dict[str, int] = {}
        for position, document in enumerate(artifact.documents):
            shard = position % shards
            shard_documents[shard].append(document)
            self._shard_of[document[0]] = shard
        self._generators = [
            CandidateGenerator.from_documents(ontology, documents, stats)
            for documents in shard_documents
        ]
        self._pool: Optional[ThreadPoolExecutor] = None
        if shards > 1:
            self._pool = ThreadPoolExecutor(
                max_workers=shards, thread_name_prefix="repro-shard"
            )
        self._retrieval = (
            retrieval if retrieval is not None else RetrievalConfig()
        )
        self._hybrid: Optional[HybridRetriever] = None
        if self._retrieval.mode != "exact":
            self._hybrid = self._build_retriever(self._retrieval)
        self._lock = threading.Lock()
        self._retrieve_failures = 0
        self._retrievals = 0
        self._score_batches = 0
        self._mode_retrievals: Dict[str, int] = {
            mode: 0 for mode in ("exact", "sparse", "dense", "hybrid")
        }

    def _build_retriever(self, config: RetrievalConfig) -> HybridRetriever:
        """The global sublinear retriever for non-exact modes."""
        artifact = self._artifact
        sparse = artifact.sparse_index
        if sparse is None:
            # No precompiled sparse index (format-1 artifact, or
            # compiled with --index none/dense): freezing one from the
            # frozen documents is cheap relative to engine start and
            # yields the identical index.
            logger.info(
                "artifact has no precompiled sparse index; freezing one "
                "from %d documents at engine start",
                len(artifact.documents),
            )
            sparse = InvertedIndex.build(
                artifact.documents, stats=artifact.corpus_stats
            )
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
    def shards(self) -> int:
        """The shard count S."""
        return self._shards

    @property
    def retrieval_mode(self) -> str:
        """The active Phase-I retrieval mode."""
        return self._retrieval.mode

    @property
    def retriever(self) -> Optional["HybridRetriever"]:
        """The global sublinear retriever (None in exact mode)."""
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
        """All indexed concept ids in global (artifact) order."""
        return self._artifact.cids

    @property
    def omega(self) -> Set[str]:
        """The indexed concepts' description vocabulary Ω."""
        merged: Set[str] = set()
        for generator in self._generators:
            merged.update(generator.omega)
        return merged

    def __contains__(self, cid: str) -> bool:
        return cid in self._shard_of

    def shard_of(self, cid: str) -> int:
        """The shard owning ``cid`` (its compiled position mod S)."""
        try:
            return self._shard_of[cid]
        except KeyError:
            raise DataError(f"concept {cid!r} is not in the compiled artifact")

    def stats(self) -> Dict[str, Any]:
        """Engine counters for the serving layer's snapshot/metrics."""
        with self._lock:
            return {
                "shards": self._shards,
                "fingerprint": self.fingerprint,
                "concepts": len(self._artifact),
                "shard_sizes": [
                    len(generator.indexed_cids)
                    for generator in self._generators
                ],
                "retrievals": self._retrievals,
                "retrieve_shard_failures": self._retrieve_failures,
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

    # -- Phase I: scatter-gather retrieval -----------------------------------

    def retrieve(
        self, tokens: Sequence[str], k: int
    ) -> List[Tuple[str, float]]:
        """Global top-``k`` candidates by scatter-gather over all shards.

        Each shard reports its local top-``k`` (global IDF scale); the
        gather merges on ``(-score, global_position)``, the monolithic
        index's exact sort key, and cuts to ``k`` — reproducing the
        unsharded ranking.  A shard that raises is skipped (its
        concepts simply cannot be retrieved this query); if every shard
        raises, :class:`ShardFailure` is raised with the last cause.

        Non-exact modes (``sparse``/``dense``/``hybrid``) answer from
        the global sublinear retriever instead — one index, no
        scatter — under the same Fig-11 CR span taxonomy with the mode
        tagged on the span.
        """
        mode = self._retrieval.mode
        with self._lock:
            self._retrievals += 1
            self._mode_retrievals[mode] += 1
        if self._hybrid is not None:
            with trace.span(
                "engine.retrieve", phase="CR", mode=mode, k=k
            ) as span:
                probe("engine.retrieve")
                if mode == "sparse":
                    matches = self._hybrid.sparse.search(
                        tokens,
                        k,
                        max_postings_per_term=(
                            self._retrieval.max_postings_per_term
                        ),
                    )
                else:
                    matches = self._hybrid.search(tokens, k, mode=mode)
                span.set_tag("candidates", len(matches))
                return [(match.key, match.score) for match in matches]
        context = trace.current_span()

        def scatter(shard: int) -> List[Tuple[str, float]]:
            with trace.attach(context), trace.span(
                "engine.shard.retrieve", phase="CR", shard=shard, k=k
            ) as span:
                probe("engine.shard.retrieve")
                hits = self._generators[shard].generate(tokens, k)
                span.set_tag("candidates", len(hits))
                return hits

        gathered: List[List[Tuple[str, float]]] = []
        failures = 0
        last_error: Optional[BaseException] = None
        if self._pool is None:
            for shard in range(self._shards):
                try:
                    gathered.append(scatter(shard))
                except Exception as error:  # noqa: BLE001 - partial gather
                    failures += 1
                    last_error = error
                    logger.warning(
                        "shard %d failed during retrieval: %s", shard, error
                    )
        else:
            futures: List[Future] = [
                self._pool.submit(scatter, shard)
                for shard in range(self._shards)
            ]
            for shard, future in enumerate(futures):
                try:
                    gathered.append(future.result())
                except Exception as error:  # noqa: BLE001 - partial gather
                    failures += 1
                    last_error = error
                    logger.warning(
                        "shard %d failed during retrieval: %s", shard, error
                    )
        if failures:
            with self._lock:
                self._retrieve_failures += failures
        if not gathered:
            raise ShardFailure(
                f"all {self._shards} shards failed during retrieval"
            ) from last_error
        position = self._artifact.position_of
        merged = sorted(
            (hit for hits in gathered for hit in hits),
            key=lambda hit: (-hit[1], position(hit[0])),
        )
        return merged[:k]

    # -- Phase II: batched scoring ------------------------------------------

    def score_batch(
        self,
        query_ids: Sequence[Sequence[int]],
        cids: Sequence[str],
    ) -> np.ndarray:
        """``log p(q_j | c_j)`` for each candidate, in one decode.

        Drop-in for :meth:`ComAid.score_batch` with concept ids instead
        of encoding pairs: the whole batch runs as one lock-step decode
        on the calling thread over the precomputed slab.  Each row is
        assembled straight from zero-copy slab views (states slice,
        ``final_h``, ``final_c``, structure memory); the decode never
        reads a concept's word ids, so none are built.  The decode's
        cost is dominated by the ``|V|``-wide output layer over the
        rows still decoding, which splitting does not reduce, so
        splitting the batch across shards would only add decodes and
        pool hops.  Every cid must be in the artifact (``DataError``
        otherwise).  A failure propagates — a partially scored ranking
        would be unfairly ordered — and is handled by the linker's
        degraded-mode guard.
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
        with trace.span("engine.shard.phase2", phase="ED", batch=len(cids)):
            probe("engine.shard.score")
            artifact = self._artifact
            offsets = artifact.state_offsets
            batch = []
            for cid in cids:
                position = artifact.position_of(cid)
                encoding = ConceptEncoding(
                    word_ids=(),
                    states=artifact.states[
                        offsets[position] : offsets[position + 1]
                    ],
                    final_h=artifact.final_h[position],
                    final_c=artifact.final_c[position],
                )
                batch.append((encoding, self.structure_memory_of(cid)))
            return self._model.score_batch(
                [list(ids) for ids in query_ids], batch
            )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ShardedConceptEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
