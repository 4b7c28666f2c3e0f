"""The COMposite AttentIonal encode-Decode network (COM-AID).

Paper Section 4.  The model computes ``p(q|c)`` — the probability of
generating query ``q`` from concept ``c`` — via:

* a **concept encoder** (LSTM over the canonical description; the final
  hidden state is the *concept representation*, Section 4.1.1);
* a **text-structure duet decoder** (LSTM over the query initialised
  from the concept representation, Eq. 4) whose per-word prediction
  uses a composite state built from

  - the decoder state ``s_t``,
  - the textual context ``tc_t`` (attention over encoder states,
    Eq. 5-6),
  - the structural context ``sc_t`` (attention over ancestor-concept
    representations along the β-path, Eq. 7),

  combined as ``s̃_t = tanh(W_d [s_t; tc_t; sc_t] + b_d)`` (Eq. 8) and
  projected to a vocabulary softmax (Eq. 9).

The two attention switches produce the paper's ablations: COM-AID⁻c
(no structure attention — Bahdanau-style attentional seq2seq),
COM-AID⁻w (no text attention), COM-AID⁻wc (plain seq2seq).  In the
ablated variants the composite layer simply takes the narrower
concatenation; the architecture is otherwise identical.

Everything here is a hand-derived forward/backward pair over the
:mod:`repro.nn` substrate; gradient correctness is verified end-to-end
by finite differences in ``tests/core/test_comaid_grad.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ComAidConfig
from repro.nn.attention import Attention, AttentionCache
from repro.nn.embedding import Embedding
from repro.nn.functional import (
    log_normalizers,
    logit_bound,
    matmul_rows,
    softmax_cross_entropy,
    tanh,
    tanh_grad,
)
from repro.nn.gru import GRUEncoder
from repro.nn.linear import Linear
from repro.nn.lstm import LSTMEncoder, LSTMStepCache
from repro.nn.module import Module
from repro.text.vocab import Vocabulary
from repro.utils.errors import ConfigurationError, DataError
from repro.utils.rng import RngLike, derive_rng, ensure_rng


@dataclass
class ConceptEncoding:
    """Pre-computable encoder outputs for one concept.

    ``states`` are the per-word hidden states ``{h_t^c}`` (the text
    attention memory); ``final_h`` is the concept representation
    ``h_n^c``; ``final_c`` the final cell state (decoder initialiser).
    """

    word_ids: Tuple[int, ...]
    states: np.ndarray
    final_h: np.ndarray
    final_c: np.ndarray
    caches: Optional[List[LSTMStepCache]] = None


#: A block of concepts' decoder step 0 — ``(h_1, c_1, s̃_0, log Z_0)``
#: with shapes ``(n, d)``, ``(n, d)``, ``(n, d)`` and ``(n,)``.
DecoderStarts = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class ConceptMemory:
    """Encoder outputs of N concepts as arrays indexed by position.

    ``final_h``/``final_c`` are the ``(N, d)`` decoder initialisers,
    ``states`` every concept's encoder states stacked into one
    ``(S, d)`` array with concept ``p`` at rows
    ``offsets[p]:offsets[p + 1]``, and ``structure`` the ``(N, β, d)``
    structure memories (``None`` without structure attention).  The
    compiled artifact's slab has exactly this layout, so the engine
    wraps its views without a copy.
    """

    def __init__(
        self,
        final_h: np.ndarray,
        final_c: np.ndarray,
        states: np.ndarray,
        offsets: np.ndarray,
        structure: Optional[np.ndarray],
    ) -> None:
        self.final_h = final_h
        self.final_c = final_c
        self.states = states
        self.offsets = offsets
        self.structure = structure

    @classmethod
    def stack(
        cls,
        concepts: Sequence[ConceptEncoding],
        structures: Optional[Sequence[np.ndarray]],
    ) -> "ConceptMemory":
        """The memory of ``concepts`` (plus their structure matrices)."""
        widths = [concept.states.shape[0] for concept in concepts]
        return cls(
            np.array([concept.final_h for concept in concepts]),
            np.array([concept.final_c for concept in concepts]),
            np.concatenate([concept.states for concept in concepts]),
            np.cumsum([0] + widths),
            np.array(structures) if structures is not None else None,
        )

    def text(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(B, W, d)`` text memory and ``(B, W)`` additive mask for
        ``rows``, ``W`` being the widest of their descriptions.

        One gather into ``states``.  A padding slot repeats its
        concept's last real row, and the mask is ``0`` on a row's real
        slots and ``−inf`` on its padding: the attention softmax gives a
        padding slot weight exactly 0, so it adds exactly 0 to the
        context.
        """
        first = self.offsets[rows]
        widths = self.offsets[rows + 1] - first
        slots = np.arange(widths.max())
        state_rows = first[:, None] + np.minimum(slots, widths[:, None] - 1)
        mask = np.where(slots < widths[:, None], 0.0, -np.inf)
        return self.states[state_rows], mask


@dataclass
class _StepCache:
    """Per-decoder-step activations needed for backward.

    When sampled-softmax training is active, ``sampled_rows`` holds the
    vocabulary rows the step's loss was computed over and ``d_logits``
    is the gradient w.r.t. those rows' logits only.
    """

    s_t: np.ndarray
    composite_input: np.ndarray
    s_tilde: np.ndarray
    d_logits: np.ndarray
    text_cache: Optional[AttentionCache]
    structure_cache: Optional[AttentionCache]
    sampled_rows: Optional[np.ndarray] = None


@dataclass
class ForwardCache:
    """Everything backward needs from one ⟨concept, query⟩ forward pass."""

    concept: ConceptEncoding
    ancestors: List[ConceptEncoding]
    struct_memory: Optional[np.ndarray]
    decoder_input_ids: List[int]
    decoder_caches: List[LSTMStepCache]
    steps: List[_StepCache] = field(default_factory=list)
    loss: float = 0.0


class ComAid(Module):
    """COM-AID model over a shared :class:`Vocabulary`."""

    def __init__(
        self,
        config: ComAidConfig,
        vocab: Vocabulary,
        rng: RngLike = None,
    ) -> None:
        if not vocab.has_specials:
            raise ConfigurationError(
                "ComAid requires a vocabulary with special tokens "
                "(<bos>/<eos> frame the decoded query)"
            )
        generator = ensure_rng(rng)
        self.config = config
        self.vocab = vocab
        dim = config.dim
        self.embedding = Embedding(
            len(vocab), dim, rng=derive_rng(generator, "embedding")
        )
        encoder_cls = LSTMEncoder if config.cell == "lstm" else GRUEncoder
        self.encoder = encoder_cls(dim, dim, rng=derive_rng(generator, "encoder"))
        self.decoder = encoder_cls(dim, dim, rng=derive_rng(generator, "decoder"))
        self.text_attention = Attention()
        self.structure_attention = Attention()
        composite_width = dim * (
            1 + int(config.use_text_attention) + int(config.use_structure_attention)
        )
        self.composite = Linear(
            composite_width, dim, rng=derive_rng(generator, "composite")
        )
        self.output = Linear(dim, len(vocab), rng=derive_rng(generator, "output"))
        self._output_sampler: Optional[Tuple[int, np.ndarray, np.random.Generator]] = None

    # -- sampled softmax (BlackOut-style speed-up) -------------------------

    def set_output_sampler(self, negatives: int, rng: RngLike = None) -> None:
        """Enable sampled-softmax training over the output vocabulary.

        The paper notes (Appendix B.2) that refinement time "can be
        further reduced when the BlackOut technique is used": instead of
        normalising over all |V| words per step, the loss is computed
        over the target plus ``negatives`` words sampled from the
        unigram distribution raised to 3/4.  Only those rows of ``W_s``
        receive gradients.  Scoring (:meth:`log_prob` etc.) always uses
        the exact softmax; call :meth:`clear_output_sampler` after
        training.
        """
        if negatives < 1:
            raise ConfigurationError(
                f"negatives must be >= 1, got {negatives}"
            )
        counts = np.array(
            [max(self.vocab.count_of(word), 1) for word in self.vocab.words],
            dtype=np.float64,
        )
        weights = np.power(counts, 0.75)
        cdf = np.cumsum(weights / weights.sum())
        self._output_sampler = (negatives, cdf, ensure_rng(rng))

    def clear_output_sampler(self) -> None:
        """Disable sampled-softmax training (restore the exact softmax)."""
        self._output_sampler = None

    def output_sampler_rng_state(self) -> Optional[dict]:
        """The active sampler generator's bit-generator state (or None).

        Captured at epoch boundaries by the checkpoint layer so a
        resumed sampled-softmax run draws the same negative rows as the
        uninterrupted run.
        """
        if self._output_sampler is None:
            return None
        return self._output_sampler[2].bit_generator.state

    def restore_output_sampler_rng(self, state: dict) -> None:
        """Restore a sampler RNG state from a checkpoint."""
        if self._output_sampler is None:
            raise ConfigurationError(
                "no output sampler is active; call set_output_sampler first"
            )
        self._output_sampler[2].bit_generator.state = state

    def _sampled_rows(self, target: int) -> np.ndarray:
        assert self._output_sampler is not None
        negatives, cdf, generator = self._output_sampler
        picks = np.searchsorted(cdf, generator.random(negatives))
        rows = [target]
        seen = {target}
        for row in picks:
            row = int(row)
            if row not in seen:
                rows.append(row)
                seen.add(row)
        return np.asarray(rows, dtype=np.intp)

    # -- encoding ---------------------------------------------------------

    def encode_concept(
        self, word_ids: Sequence[int], keep_caches: bool = True
    ) -> ConceptEncoding:
        """Run the concept encoder over a word-id sequence."""
        if not word_ids:
            raise DataError("cannot encode an empty concept description")
        inputs = self.embedding.forward(word_ids)
        states, caches = self.encoder.forward(inputs)
        return ConceptEncoding(
            word_ids=tuple(word_ids),
            states=states,
            final_h=states[-1],
            final_c=caches[-1].c,
            caches=caches if keep_caches else None,
        )

    def concept_representation(self, word_ids: Sequence[int]) -> np.ndarray:
        """The paper's concept representation ``h_n^c`` (a copy)."""
        return self.encode_concept(word_ids, keep_caches=False).final_h.copy()

    def _candidate_structure_memory(
        self, ancestors: object
    ) -> Optional[np.ndarray]:
        """Structure memory for one :meth:`score_batch` candidate.

        Accepts either a precomputed ``(beta, dim)`` matrix (the
        compiled-artifact fast path, validated for shape) or a sequence
        of ancestor encodings to stack the usual way.
        """
        if isinstance(ancestors, np.ndarray):
            if not self.config.use_structure_attention:
                return None
            expected = (self.config.beta, self.config.dim)
            if ancestors.shape != expected:
                raise DataError(
                    f"precomputed structure memory has shape "
                    f"{ancestors.shape}, expected {expected}"
                )
            return ancestors
        return self._structure_memory(list(ancestors))

    def _structure_memory(
        self, ancestors: Sequence[ConceptEncoding]
    ) -> Optional[np.ndarray]:
        if not self.config.use_structure_attention:
            return None
        if len(ancestors) != self.config.beta:
            raise DataError(
                f"structure attention needs exactly beta={self.config.beta} "
                f"ancestor encodings, got {len(ancestors)}"
            )
        return np.vstack([encoding.final_h for encoding in ancestors])

    # -- forward ------------------------------------------------------------

    def forward(
        self,
        concept_ids: Sequence[int],
        ancestor_ids: Sequence[Sequence[int]],
        query_ids: Sequence[int],
    ) -> ForwardCache:
        """Teacher-forced forward pass; returns a cache holding the loss.

        ``loss = -log p(q|c)`` summed over query tokens plus the
        terminating ``<eos>`` (Eq. 3/10).
        """
        if not query_ids:
            raise DataError("cannot decode an empty query")
        concept = self.encode_concept(concept_ids)
        ancestors = [self.encode_concept(ids) for ids in ancestor_ids] if (
            self.config.use_structure_attention
        ) else []
        struct_memory = self._structure_memory(ancestors)
        cache = self._decode(concept, ancestors, struct_memory, query_ids)
        return cache

    def _decode(
        self,
        concept: ConceptEncoding,
        ancestors: List[ConceptEncoding],
        struct_memory: Optional[np.ndarray],
        query_ids: Sequence[int],
    ) -> ForwardCache:
        decoder_input_ids = [self.vocab.bos_id] + list(query_ids)
        targets = list(query_ids) + [self.vocab.eos_id]
        decoder_inputs = self.embedding.forward(decoder_input_ids)
        decoder_states, decoder_caches = self.decoder.forward(
            decoder_inputs, h0=concept.final_h, c0=concept.final_c
        )
        cache = ForwardCache(
            concept=concept,
            ancestors=ancestors,
            struct_memory=struct_memory,
            decoder_input_ids=decoder_input_ids,
            decoder_caches=decoder_caches,
        )
        total_loss = 0.0
        for t, target in enumerate(targets):
            s_t = decoder_states[t]
            parts = [s_t]
            text_cache: Optional[AttentionCache] = None
            structure_cache: Optional[AttentionCache] = None
            if self.config.use_text_attention:
                text_context, _, text_cache = self.text_attention.forward(
                    s_t, concept.states
                )
                parts.append(text_context)
            if self.config.use_structure_attention:
                assert struct_memory is not None
                structure_context, _, structure_cache = (
                    self.structure_attention.forward(s_t, struct_memory)
                )
                parts.append(structure_context)
            composite_input = np.concatenate(parts)
            s_tilde = tanh(self.composite.forward(composite_input))
            sampled_rows: Optional[np.ndarray] = None
            if self._output_sampler is not None:
                sampled_rows = self._sampled_rows(target)
                logits = (
                    self.output.weight.value[sampled_rows] @ s_tilde
                    + self.output.bias.value[sampled_rows]
                )
                loss_t, d_logits = softmax_cross_entropy(logits, 0)
            else:
                logits = self.output.forward(s_tilde)
                loss_t, d_logits = softmax_cross_entropy(logits, target)
            total_loss += loss_t
            cache.steps.append(
                _StepCache(
                    s_t=s_t,
                    composite_input=composite_input,
                    s_tilde=s_tilde,
                    d_logits=d_logits,
                    text_cache=text_cache,
                    structure_cache=structure_cache,
                    sampled_rows=sampled_rows,
                )
            )
        cache.loss = total_loss
        return cache

    # -- backward -------------------------------------------------------------

    def backward(self, cache: ForwardCache, scale: float = 1.0) -> None:
        """Back-propagate ``scale * d loss`` through the whole network.

        Gradients accumulate into the module parameters; callers zero
        them between optimisation steps.
        """
        dim = self.config.dim
        steps = len(cache.steps)
        d_decoder_states = np.zeros((steps, dim))
        d_concept_states = np.zeros_like(cache.concept.states)
        d_struct_memory = (
            np.zeros_like(cache.struct_memory)
            if cache.struct_memory is not None
            else None
        )
        for t, step in enumerate(cache.steps):
            d_logits = step.d_logits * scale
            if step.sampled_rows is not None:
                rows = step.sampled_rows
                self.output.weight.grad[rows] += np.outer(d_logits, step.s_tilde)
                self.output.bias.grad[rows] += d_logits
                d_s_tilde = self.output.weight.value[rows].T @ d_logits
            else:
                d_s_tilde = self.output.backward(step.s_tilde, d_logits)
            d_pre = d_s_tilde * tanh_grad(step.s_tilde)
            d_composite_input = self.composite.backward(
                step.composite_input, d_pre
            )
            d_s_t = d_composite_input[:dim].copy()
            offset = dim
            if self.config.use_text_attention:
                assert step.text_cache is not None
                d_text_context = d_composite_input[offset : offset + dim]
                offset += dim
                d_query, d_memory = self.text_attention.backward(
                    d_text_context, step.text_cache
                )
                d_s_t += d_query
                d_concept_states += d_memory
            if self.config.use_structure_attention:
                assert step.structure_cache is not None and d_struct_memory is not None
                d_structure_context = d_composite_input[offset : offset + dim]
                d_query, d_memory = self.structure_attention.backward(
                    d_structure_context, step.structure_cache
                )
                d_s_t += d_query
                d_struct_memory += d_memory
            d_decoder_states[t] = d_s_t

        d_decoder_inputs, d_h0, d_c0 = self.decoder.backward(
            d_decoder_states, cache.decoder_caches
        )
        self.embedding.backward(cache.decoder_input_ids, d_decoder_inputs)

        # Concept encoder: per-state grads from text attention, plus the
        # decoder initial state/cell grads on the final step.
        if cache.concept.caches is None:
            raise DataError("forward cache was built without encoder caches")
        d_concept_inputs, _, _ = self.encoder.backward(
            d_concept_states,
            cache.concept.caches,
            d_h_final=d_h0,
            d_c_final=d_c0,
        )
        self.embedding.backward(list(cache.concept.word_ids), d_concept_inputs)

        # Ancestor encoders: each ancestor's final hidden state received
        # gradient through the structure attention memory.
        if d_struct_memory is not None:
            for row, ancestor in enumerate(cache.ancestors):
                if ancestor.caches is None:
                    raise DataError("ancestor encoding missing caches")
                d_ancestor_inputs, _, _ = self.encoder.backward(
                    np.zeros_like(ancestor.states),
                    ancestor.caches,
                    d_h_final=d_struct_memory[row],
                )
                self.embedding.backward(
                    list(ancestor.word_ids), d_ancestor_inputs
                )

    # -- scoring ------------------------------------------------------------

    def pair_loss(
        self,
        concept_ids: Sequence[int],
        ancestor_ids: Sequence[Sequence[int]],
        query_ids: Sequence[int],
    ) -> float:
        """``-log p(q|c)`` (nats), forward pass only."""
        return self.forward(concept_ids, ancestor_ids, query_ids).loss

    def log_prob(
        self,
        concept_ids: Sequence[int],
        ancestor_ids: Sequence[Sequence[int]],
        query_ids: Sequence[int],
    ) -> float:
        """``log p(q|c)`` (Eq. 1)."""
        return -self.pair_loss(concept_ids, ancestor_ids, query_ids)

    def score_with_encodings(
        self,
        concept: ConceptEncoding,
        ancestors: Sequence[ConceptEncoding],
        query_ids: Sequence[int],
    ) -> float:
        """``log p(q|c)`` reusing pre-computed encoder runs.

        The online linker encodes every candidate concept once and
        scores many queries against it; this avoids re-running the
        encoder (the dominant cost Figure 11 calls "ED").  As with
        :meth:`score_batch`, ``ancestors`` may be a precomputed
        ``(beta, dim)`` structure-memory matrix instead of ancestor
        encodings.
        """
        if not query_ids:
            raise DataError("cannot score an empty query")
        struct_memory = self._candidate_structure_memory(ancestors)
        if self.config.use_structure_attention and isinstance(
            ancestors, np.ndarray
        ):
            ancestors = []
        cache = self._decode(concept, list(ancestors), struct_memory, query_ids)
        return -cache.loss

    def score_batch(
        self,
        query_ids: Sequence[Sequence[int]],
        candidates: Sequence[Tuple[ConceptEncoding, Sequence[ConceptEncoding]]],
    ) -> np.ndarray:
        """Batched :meth:`score_with_encodings` — the Phase-II hot path.

        ``candidates`` holds one ``(concept, ancestors)`` encoding pair
        per re-ranking candidate; ``query_ids`` gives each candidate its
        query-word ids (possibly distinct per candidate — the linker
        removes the words each candidate's canonical description shares
        with the query).  Returns the ``(k,)`` vector of
        ``log p(q_j | c_j)`` in the caller's row order, matching the
        sequential method per row to floating-point round-off.

        Step 0 depends only on the concept, so it runs once per
        distinct ``(concept, ancestors)`` pair of the call
        (:meth:`decoder_start`); the rows then decode together from
        step 1 (:meth:`score_from_starts`), under the logit bound of
        the current output layer (:meth:`logit_bound`, computed per
        call).  Inference-only: no caches are kept and no gradients
        flow — training and the equivalence-test oracle stay on the
        sequential :meth:`_decode`.

        A candidate's ancestors may be given either as the usual
        sequence of :class:`ConceptEncoding` (runtime encoding path) or
        as a precomputed ``(beta, dim)`` structure-memory matrix — the
        exact array :meth:`_structure_memory` would build.
        """
        if len(query_ids) != len(candidates):
            raise DataError(
                f"got {len(query_ids)} query sequences for "
                f"{len(candidates)} candidates"
            )
        if not candidates:
            raise DataError("cannot score an empty candidate batch")
        use_structure = self.config.use_structure_attention
        # Rows sharing the concept and ancestor objects share a start.
        slot_of: Dict[Tuple[int, Optional[int]], int] = {}
        rows = np.empty(len(candidates), dtype=np.intp)
        distinct: List[Tuple[ConceptEncoding, object]] = []
        for row, (concept, ancestors) in enumerate(candidates):
            key = (id(concept), id(ancestors) if use_structure else None)
            if key not in slot_of:
                slot_of[key] = len(distinct)
                distinct.append((concept, ancestors))
            rows[row] = slot_of[key]
        memory = ConceptMemory.stack(
            [concept for concept, _ in distinct],
            [
                self._candidate_structure_memory(ancestors)
                for _, ancestors in distinct
            ]
            if use_structure
            else None,
        )
        starts = self.decoder_start(memory, np.arange(len(distinct)))
        return self.score_from_starts(
            query_ids,
            tuple(part[rows] for part in starts),
            memory,
            rows,
            self.logit_bound(),
        )

    def logit_bound(self) -> float:
        """The output layer's logit bound ``L = max_w(‖W_s[w]‖₁ + |b_w|)``.

        ``s̃ = tanh(·)`` (Eq. 8), so every Eq. 9 logit lies within
        ``±L`` (:func:`~repro.nn.functional.logit_bound`).  A full pass
        over ``W_s``: the compiled-artifact engine computes it once,
        since its weights are pinned to the artifact fingerprint.
        """
        return logit_bound(self.output.weight.value, self.output.bias.value)

    def decoder_start(
        self, memory: ConceptMemory, rows: np.ndarray
    ) -> DecoderStarts:
        """Decoder step 0 for concepts ``rows`` of ``memory``.

        The first decode step feeds ``<bos>`` from the concept's
        ``(h_n^c, c_n^c)``; nothing from the query enters it, so its
        recurrent state, both attentions, the composite state (Eq. 8)
        and the output normaliser (Eq. 9) are fixed per concept.
        Returns ``(h_1, c_1, s̃_0, log Z_0)``: step 0 scores target
        ``w`` as ``W_s[w]·s̃_0 + b[w] − log Z_0``, and the decode
        resumes at step 1 from ``(h_1, c_1)``.  ``log Z_0`` is always
        the max-shifted normaliser.
        """
        x = self.embedding.weight.value[np.full(len(rows), self.vocab.bos_id)]
        h, c = self.decoder.cell.step_batch(
            x, memory.final_h[rows], memory.final_c[rows]
        )
        s_tilde = self._composite_state(
            h, *self._attention_memories(memory, rows)
        )
        logits = matmul_rows(s_tilde, self.output.weight.value.T)
        logits += self.output.bias.value
        return h, c, s_tilde, log_normalizers(logits)

    def _attention_memories(
        self, memory: ConceptMemory, rows: np.ndarray
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """``(text memory, text mask, structure memory)`` for concepts
        ``rows`` of ``memory``, built once per call; ``None`` where an
        attention is off.  The text mask is the additive ``0 / −inf``
        bias of :meth:`ConceptMemory.text`."""
        text_memory = text_mask = structure = None
        if self.config.use_text_attention:
            text_memory, text_mask = memory.text(rows)
        if self.config.use_structure_attention:
            structure = memory.structure[rows]
        return text_memory, text_mask, structure

    def _composite_state(
        self,
        h: np.ndarray,
        text_memory: Optional[np.ndarray],
        text_mask: Optional[np.ndarray],
        structure: Optional[np.ndarray],
    ) -> np.ndarray:
        """``s̃ = tanh(W_d [s; tc; sc] + b_d)`` (Eq. 8) for the decoder
        states ``h``, which attend over the first ``len(h)`` rows of
        the memories (Eq. 5-7).

        The contexts are written straight into the composite layer's
        input, and the bias add and ``tanh`` run in place on the
        product.  Shared by :meth:`decoder_start` and the decode loop,
        so Eqs. 5-8 exist once on the batched path.
        """
        rows, dim = h.shape
        composite = self.composite
        stacked = np.empty((rows, composite.in_dim))
        stacked[:, :dim] = h
        if text_memory is not None:
            self.text_attention.forward_batch(
                h, text_memory[:rows], text_mask[:rows], stacked[:, dim : 2 * dim]
            )
        if structure is not None:
            self.structure_attention.forward_batch(
                h, structure[:rows], None, stacked[:, -dim:]
            )
        s_tilde = matmul_rows(stacked, composite.weight.value.T)
        s_tilde += composite.bias.value
        return np.tanh(s_tilde, out=s_tilde)

    def score_from_starts(
        self,
        query_ids: Sequence[Sequence[int]],
        starts: DecoderStarts,
        memory: ConceptMemory,
        rows: np.ndarray,
        bound: float,
    ) -> np.ndarray:
        """``log p(q_j | c_j)`` per row, decoding from step 1.

        Row ``j`` decodes query ``query_ids[j]`` against concept
        ``rows[j]`` of ``memory``; ``starts`` holds each row's
        :meth:`decoder_start` output and is only read.  Step 0's score
        is a gather and a row dot against ``s̃_0`` — no ``|V|``-wide
        work.  ``bound`` is the output layer's :meth:`logit_bound`.

        All rows advance in lock-step from step 1: one ``(k, ·)``
        matmul per decoder timestep instead of k mat-vecs (the trick
        seq2seq serving stacks use for beam scoring).  Rows are
        stable-sorted by decode length, longest first, so at step t the
        rows whose ⟨query, eos⟩ sequence is still running are a prefix
        of the batch: the step runs embedding → recurrent step →
        attentions → composite → output on that prefix only, and a row
        leaves the batch after its last step — no row ever decodes a
        ``<pad>``.  Text attention (Eq. 5-6) is masked over each
        concept's true description length; structure attention (Eq. 7)
        runs over the ``(k, β, d)`` ancestor block — Def. 4.1's
        first-level duplication already pads every ancestor path to
        exactly β, so no mask is needed there.

        Every check and table is built once per call: the sorted
        ``(k, span + 1)`` word matrix (each query, then ``<eos>``), its
        id range (``IndexError``), empty queries (``DataError``) and
        the text mask.  A step then gathers embedding rows directly and
        reads only the target entry of the ``|V|``-wide softmax; with
        ``bound`` below :data:`~repro.nn.functional.SHIFT_FREE_LIMIT`
        its normaliser needs no max shift
        (:func:`~repro.nn.functional.log_normalizers`).
        """
        size = len(query_ids)
        lengths = np.fromiter(map(len, query_ids), np.intp, size)
        if not lengths.all():
            raise DataError("cannot score an empty query")
        # Longest decode first; the stable sort keeps equal lengths in
        # the caller's order.  live[t] = rows still decoding at step
        # t + 1; every row runs at least its <eos> step.
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        span = int(lengths[0])
        live = np.count_nonzero(
            lengths[:, None] > np.arange(span), axis=0
        ).tolist()
        # words[b] is sorted row b's query, then <eos> to the width
        # span + 1: step t + 1 reads word t and predicts word t + 1.
        # Entries past a row's <eos> are never read.
        eos = [self.vocab.eos_id] * (span + 1)
        words = np.fromiter(
            chain.from_iterable(
                chain(query_ids[row], eos[length:])
                for row, length in zip(order.tolist(), lengths.tolist())
            ),
            np.intp,
            size * (span + 1),
        ).reshape(size, span + 1)
        embedding = self.embedding.weight.value
        if words.min() < 0 or words.max() >= embedding.shape[0]:
            raise IndexError(
                f"word ids out of range [0, {embedding.shape[0]}): "
                f"{words.min()}..{words.max()}"
            )
        h, c, s_tilde, log_z = (part[order] for part in starts)
        weight = self.output.weight.value
        bias = self.output.bias.value
        first = words[:, 0]
        sorted_log_probs = np.einsum("bd,bd->b", weight[first], s_tilde)
        sorted_log_probs += bias[first] - log_z
        memories = self._attention_memories(memory, np.asarray(rows)[order])
        # One logits buffer per call, reused by every step: a fresh
        # (rows, |V|) temporary per step costs more in page faults than
        # the exp over it.
        logits_buffer = np.empty((size, bias.shape[0]))
        weight_t = weight.T
        cell = self.decoder.cell
        row_index = np.arange(size)
        for t, live_rows in enumerate(live):
            h, c = cell.step_batch(
                embedding[words[:live_rows, t]], h[:live_rows], c[:live_rows]
            )
            s_tilde = self._composite_state(h, *memories)
            logits = matmul_rows(s_tilde, weight_t, out=logits_buffer[:live_rows])
            logits += bias
            targets = logits[row_index[:live_rows], words[:live_rows, t + 1]]
            targets -= log_normalizers(logits, bound)
            sorted_log_probs[:live_rows] += targets
        log_probs = np.empty(size)
        log_probs[order] = sorted_log_probs
        return log_probs

    # -- generation ---------------------------------------------------------

    def generate(
        self,
        concept_ids: Sequence[int],
        ancestor_ids: Sequence[Sequence[int]],
        max_length: int = 12,
        temperature: float = 0.0,
        rng: RngLike = None,
    ) -> List[str]:
        """Decode a plausible alias for a concept — COM-AID run as the
        generative translation model it is.

        ``temperature == 0`` decodes greedily; larger values sample from
        the tempered per-step distribution.  Generation stops at
        ``<eos>`` or ``max_length`` words.  Special tokens never appear
        in the output.
        """
        if max_length < 1:
            raise ConfigurationError(
                f"max_length must be >= 1, got {max_length}"
            )
        if temperature < 0:
            raise ConfigurationError(
                f"temperature must be >= 0, got {temperature}"
            )
        generator = ensure_rng(rng)
        concept = self.encode_concept(concept_ids, keep_caches=False)
        ancestors = (
            [self.encode_concept(ids, keep_caches=False) for ids in ancestor_ids]
            if self.config.use_structure_attention
            else []
        )
        struct_memory = self._structure_memory(ancestors)
        blocked = {self.vocab.pad_id, self.vocab.bos_id, self.vocab.unk_id}
        h, c = concept.final_h, concept.final_c
        current = self.vocab.bos_id
        words: List[str] = []
        for _ in range(max_length):
            x = self.embedding.forward([current])[0]
            h, c, _ = self.decoder.cell.step(x, h, c)
            parts = [h]
            if self.config.use_text_attention:
                context, _, _ = self.text_attention.forward(h, concept.states)
                parts.append(context)
            if self.config.use_structure_attention:
                assert struct_memory is not None
                context, _, _ = self.structure_attention.forward(
                    h, struct_memory
                )
                parts.append(context)
            s_tilde = tanh(self.composite.forward(np.concatenate(parts)))
            logits = self.output.forward(s_tilde)
            logits[list(blocked)] = -np.inf
            if temperature == 0.0:
                choice = int(np.argmax(logits))
            else:
                tempered = logits / temperature
                tempered -= tempered.max()
                probabilities = np.exp(tempered)
                probabilities[~np.isfinite(probabilities)] = 0.0
                probabilities /= probabilities.sum()
                choice = int(
                    generator.choice(len(probabilities), p=probabilities)
                )
            if choice == self.vocab.eos_id:
                break
            words.append(self.vocab.word_of(choice))
            current = choice
        return words

    # -- conversions -----------------------------------------------------------

    def words_to_ids(self, words: Sequence[str]) -> List[int]:
        """Vocabulary encoding helper (unknown words -> ``<unk>``)."""
        return self.vocab.encode(words)
