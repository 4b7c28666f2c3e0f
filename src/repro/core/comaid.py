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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ComAidConfig
from repro.nn.attention import Attention, AttentionCache
from repro.nn.embedding import Embedding
from repro.nn.functional import (
    batched_target_log_probs,
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

        All k decodes advance in lock-step: one ``(k, ·)`` matmul per
        decoder timestep instead of k mat-vecs (the trick seq2seq
        serving stacks use for beam scoring).  Rows are stable-sorted
        by decode length, longest first, so at step t the rows whose
        ⟨query, eos⟩ sequence is still running are a prefix of the
        batch: the step runs embedding → recurrent step → attentions →
        composite → output on that prefix only, and a row leaves the
        batch after its last step — no row ever decodes a ``<pad>``.
        Text attention (Eq. 5-6) is masked over each candidate's true
        description length; structure attention (Eq. 7) runs over the
        ``(k, β, d)`` ancestor block — Def. 4.1's first-level
        duplication already pads every ancestor path to exactly β, so
        no mask is needed there.  Each step reads only the target
        entry of the ``|V|``-wide softmax
        (:func:`~repro.nn.functional.batched_target_log_probs`).
        Inference-only: no caches are kept and no gradients flow —
        training and the equivalence-test oracle stay on the sequential
        :meth:`_decode`.

        A candidate's ancestors may be given either as the usual
        sequence of :class:`ConceptEncoding` (runtime encoding path) or
        as a precomputed ``(beta, dim)`` structure-memory matrix — the
        exact array :meth:`_structure_memory` would build.  The
        compiled-artifact engine stores those matrices per concept so
        the ancestor encoders never run online.
        """
        if len(query_ids) != len(candidates):
            raise DataError(
                f"got {len(query_ids)} query sequences for "
                f"{len(candidates)} candidates"
            )
        if not candidates:
            raise DataError("cannot score an empty candidate batch")
        queries = [list(ids) for ids in query_ids]
        if any(not query for query in queries):
            raise DataError("cannot score an empty query")
        size = len(candidates)
        dim = self.config.dim
        # Longest decode first; the stable sort keeps equal lengths in
        # the caller's order.  live[t] = rows still decoding at step t.
        lengths = np.asarray([len(query) + 1 for query in queries])
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        steps = np.arange(lengths[0])
        live = np.count_nonzero(lengths[:, None] > steps, axis=0).tolist()
        # targets[b, t] is the word row b predicts at step t (its query,
        # then <eos>); the input at step t is <bos>, then the previous
        # target.  Entries past a row's last step are never read.
        targets = np.full(
            (size, steps.size), self.vocab.eos_id, dtype=np.intp
        )
        targets[steps < lengths[:, None] - 1] = [
            word for row in order for word in queries[row]
        ]
        input_ids = np.empty_like(targets)
        input_ids[:, 0] = self.vocab.bos_id
        input_ids[:, 1:] = targets[:, :-1]
        concepts = [candidates[row][0] for row in order]
        h = np.array([concept.final_h for concept in concepts])
        c = np.array([concept.final_c for concept in concepts])
        text_memory: Optional[np.ndarray] = None
        text_mask: Optional[np.ndarray] = None
        if self.config.use_text_attention:
            states = [concept.states for concept in concepts]
            widths = np.asarray([memory.shape[0] for memory in states])
            text_mask = np.arange(widths.max()) < widths[:, None]
            text_memory = np.zeros(text_mask.shape + (dim,))
            text_memory[text_mask] = np.concatenate(states)
        struct_memory: Optional[np.ndarray] = None
        if self.config.use_structure_attention:
            struct_memory = np.array(
                [
                    self._candidate_structure_memory(candidates[row][1])
                    for row in order
                ]
            )
        sorted_log_probs = np.zeros(size)
        weight_t = self.output.weight.value.T
        bias = self.output.bias.value
        # One logits buffer per call, reused by every step: a fresh
        # (rows, |V|) temporary per step costs more in page faults than
        # the exp over it.
        logits_buffer = np.empty((size, bias.shape[0]))
        for t, rows in enumerate(live):
            x = self.embedding.forward(input_ids[:rows, t])
            h, c = self.decoder.cell.step_batch(x, h[:rows], c[:rows])
            parts = [h]
            if text_memory is not None:
                contexts, _ = self.text_attention.forward_batch(
                    h, text_memory[:rows], text_mask[:rows]
                )
                parts.append(contexts)
            if struct_memory is not None:
                contexts, _ = self.structure_attention.forward_batch(
                    h, struct_memory[:rows]
                )
                parts.append(contexts)
            s_tilde = tanh(self.composite.forward(np.concatenate(parts, axis=1)))
            logits = np.matmul(s_tilde, weight_t, out=logits_buffer[:rows])
            logits += bias
            sorted_log_probs[:rows] += batched_target_log_probs(
                logits, targets[:rows, t]
            )
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
