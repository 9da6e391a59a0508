"""Switch-Transformer encoder-decoder model (conventional MoE baseline).

This is the functional (numpy) implementation of the baseline model the
paper builds on: a T5-style encoder-decoder in which every
``moe_layer_frequency``-th FFN layer is replaced by a sparse MoE block
(Figure 1).  It supports teacher-forced training (for the fine-tuning
experiments of Table II / Figure 13) and incremental greedy decoding with
key/value caches (for the functional end-to-end examples).

The paper-scale configurations are never instantiated with real weights —
the serving/performance experiments use the analytic hardware model in
:mod:`repro.system` — but the model code is configuration-driven so tiny
and paper-scale configs share the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..tensor import (
    Dropout,
    Embedding,
    FeedForward,
    KVCache,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
    Tensor,
    no_grad,
)
from .configs import ModelConfig
from .gating import RoutingDecision
from .moe_block import MoEBlock


@dataclass
class RoutingTraceEntry:
    """One MoE block evaluation recorded during a forward pass."""

    stack: str                      # "encoder" or "decoder"
    layer_index: int                # transformer-block index within the stack
    moe_block_index: int            # index among the MoE blocks of that stack
    decision: RoutingDecision

    @property
    def activated_experts(self) -> List[int]:
        return list(self.decision.activated_experts)


@dataclass
class Seq2SeqOutput:
    """Output bundle of a forward pass."""

    logits: Tensor
    aux_loss: Tensor
    routing_trace: List[RoutingTraceEntry] = field(default_factory=list)
    encoder_hidden: Optional[Tensor] = None


class EncoderBlock(Module):
    """Transformer encoder block: self-attention + (dense FFN | MoE block)."""

    def __init__(self, config: ModelConfig, layer_index: int, use_moe: bool,
                 moe_block_index: int = 0, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.use_moe = use_moe
        self.moe_block_index = moe_block_index
        self.attention = MultiHeadAttention(config.d_model, config.num_heads, causal=False, rng=rng)
        self.attn_norm = LayerNorm(config.d_model)
        self.ffn_norm = LayerNorm(config.d_model)
        self.dropout = Dropout(dropout, rng=rng)
        if use_moe:
            self.moe = MoEBlock(config.d_model, config.d_ff, config.num_experts,
                                top_k=config.top_k, block_index=moe_block_index, rng=rng)
        else:
            self.ffn = FeedForward(config.d_model, config.d_ff, rng=rng)

    def forward(self, hidden: Tensor, padding_mask: Optional[np.ndarray] = None,
                top_k: Optional[int] = None) -> Tuple[Tensor, Optional[RoutingDecision]]:
        attn_out = self.attention(self.attn_norm(hidden), key_padding_mask=padding_mask)
        hidden = hidden + self.dropout(attn_out)

        normed = self.ffn_norm(hidden)
        routing = None
        if self.use_moe:
            batch, length, dim = normed.shape
            flat = normed.reshape(batch * length, dim)
            moe_out, routing = self.moe(flat, top_k=top_k)
            ffn_out = moe_out.reshape(batch, length, dim)
        else:
            ffn_out = self.ffn(normed)
        hidden = hidden + self.dropout(ffn_out)
        return hidden, routing


class DecoderBlock(Module):
    """Transformer decoder block: causal self-attention + cross-attention + FFN/MoE."""

    def __init__(self, config: ModelConfig, layer_index: int, use_moe: bool,
                 moe_block_index: int = 0, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.use_moe = use_moe
        self.moe_block_index = moe_block_index
        self.self_attention = MultiHeadAttention(config.d_model, config.num_heads, causal=True, rng=rng)
        self.cross_attention = MultiHeadAttention(config.d_model, config.num_heads, causal=False, rng=rng)
        self.self_norm = LayerNorm(config.d_model)
        self.cross_norm = LayerNorm(config.d_model)
        self.ffn_norm = LayerNorm(config.d_model)
        self.dropout = Dropout(dropout, rng=rng)
        if use_moe:
            self.moe = MoEBlock(config.d_model, config.d_ff, config.num_experts,
                                top_k=config.top_k, block_index=moe_block_index, rng=rng)
        else:
            self.ffn = FeedForward(config.d_model, config.d_ff, rng=rng)

    def forward(
        self,
        hidden: Tensor,
        encoder_hidden: Tensor,
        encoder_padding_mask: Optional[np.ndarray] = None,
        kv_cache: Optional[KVCache] = None,
        top_k: Optional[int] = None,
    ) -> Tuple[Tensor, Optional[RoutingDecision]]:
        self_out = self.self_attention(self.self_norm(hidden), kv_cache=kv_cache)
        hidden = hidden + self.dropout(self_out)

        cross_out = self.cross_attention(
            self.cross_norm(hidden), key=encoder_hidden, value=encoder_hidden,
            key_padding_mask=encoder_padding_mask,
        )
        hidden = hidden + self.dropout(cross_out)

        normed = self.ffn_norm(hidden)
        routing = None
        if self.use_moe:
            batch, length, dim = normed.shape
            flat = normed.reshape(batch * length, dim)
            moe_out, routing = self.moe(flat, top_k=top_k)
            ffn_out = moe_out.reshape(batch, length, dim)
        else:
            ffn_out = self.ffn(normed)
        hidden = hidden + self.dropout(ffn_out)
        return hidden, routing


def _moe_layer_positions(num_layers: int, frequency: int) -> List[int]:
    """Indices of transformer blocks whose FFN is an MoE block.

    Switch-Transformer replaces every ``frequency``-th FFN starting from the
    ``frequency - 1``-th block (so frequency 2 gives blocks 1, 3, 5, ...).
    """
    if frequency < 1:
        raise ValueError("moe_layer_frequency must be >= 1")
    return [i for i in range(num_layers) if (i + 1) % frequency == 0]


class SwitchTransformer(Module):
    """Conventional Switch-Transformer encoder-decoder model.

    Parameters
    ----------
    config:
        A :class:`~repro.moe.configs.ModelConfig`.  When ``config.is_moe`` is
        False this degenerates to the dense T5 baseline.
    dropout:
        Dropout rate applied to residual branches during training.
    seed:
        Seed for the model's private RNG so weight initialisation is
        reproducible across the conventional vs pre-gated comparison.
    """

    def __init__(self, config: ModelConfig, dropout: float = 0.0, seed: int = 0) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        self.embedding = Embedding(config.vocab_size, config.d_model, rng=rng)
        self.encoder_moe_positions = _moe_layer_positions(
            config.num_encoder_layers, config.moe_layer_frequency) if config.is_moe else []
        self.decoder_moe_positions = _moe_layer_positions(
            config.num_decoder_layers, config.moe_layer_frequency) if config.is_moe else []

        encoder_blocks = []
        moe_idx = 0
        for i in range(config.num_encoder_layers):
            use_moe = i in self.encoder_moe_positions
            encoder_blocks.append(EncoderBlock(config, i, use_moe, moe_block_index=moe_idx,
                                               dropout=dropout, rng=rng))
            moe_idx += int(use_moe)
        self.encoder_blocks = ModuleList(encoder_blocks)
        self.encoder_final_norm = LayerNorm(config.d_model)

        decoder_blocks = []
        moe_idx = 0
        for i in range(config.num_decoder_layers):
            use_moe = i in self.decoder_moe_positions
            decoder_blocks.append(DecoderBlock(config, i, use_moe, moe_block_index=moe_idx,
                                               dropout=dropout, rng=rng))
            moe_idx += int(use_moe)
        self.decoder_blocks = ModuleList(decoder_blocks)
        self.decoder_final_norm = LayerNorm(config.d_model)

        self.lm_head = Linear(config.d_model, config.vocab_size, bias=False, rng=rng)

    # ------------------------------------------------------------------
    # Encoder / decoder passes
    # ------------------------------------------------------------------
    def encode(self, input_ids: np.ndarray, padding_mask: Optional[np.ndarray] = None,
               trace: Optional[List[RoutingTraceEntry]] = None,
               top_k: Optional[int] = None) -> Tensor:
        hidden = self.embedding(input_ids)
        for block in self.encoder_blocks:
            hidden, routing = block(hidden, padding_mask=padding_mask, top_k=top_k)
            if routing is not None and trace is not None:
                trace.append(RoutingTraceEntry("encoder", block.layer_index,
                                               block.moe_block_index, routing))
        return self.encoder_final_norm(hidden)

    def decode(self, decoder_ids: np.ndarray, encoder_hidden: Tensor,
               encoder_padding_mask: Optional[np.ndarray] = None,
               kv_caches: Optional[List[KVCache]] = None,
               trace: Optional[List[RoutingTraceEntry]] = None,
               top_k: Optional[int] = None) -> Tensor:
        hidden = self.embedding(decoder_ids)
        for i, block in enumerate(self.decoder_blocks):
            cache = kv_caches[i] if kv_caches is not None else None
            hidden, routing = block(hidden, encoder_hidden,
                                    encoder_padding_mask=encoder_padding_mask,
                                    kv_cache=cache, top_k=top_k)
            if routing is not None and trace is not None:
                trace.append(RoutingTraceEntry("decoder", block.layer_index,
                                               block.moe_block_index, routing))
        hidden = self.decoder_final_norm(hidden)
        return self.lm_head(hidden)

    # ------------------------------------------------------------------
    def forward(self, input_ids: np.ndarray, decoder_ids: np.ndarray,
                input_padding_mask: Optional[np.ndarray] = None,
                top_k: Optional[int] = None) -> Seq2SeqOutput:
        """Teacher-forced forward pass returning logits and the routing trace."""
        trace: List[RoutingTraceEntry] = []
        encoder_hidden = self.encode(input_ids, padding_mask=input_padding_mask,
                                     trace=trace, top_k=top_k)
        logits = self.decode(decoder_ids, encoder_hidden,
                             encoder_padding_mask=input_padding_mask,
                             trace=trace, top_k=top_k)
        aux = Tensor(0.0)
        for entry in trace:
            aux = aux + entry.decision.aux_loss
        if trace:
            aux = aux * (1.0 / len(trace))
        return Seq2SeqOutput(logits=logits, aux_loss=aux, routing_trace=trace,
                             encoder_hidden=encoder_hidden)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def greedy_decode(self, input_ids: np.ndarray, bos_id: int, eos_id: int,
                      max_new_tokens: int = 16,
                      input_padding_mask: Optional[np.ndarray] = None,
                      collect_trace: bool = False,
                      top_k: Optional[int] = None
                      ) -> Tuple[np.ndarray, List[List[RoutingTraceEntry]]]:
        """Greedy incremental decoding (one decoder iteration per output token).

        Returns the generated token ids (including the BOS prefix) and, if
        requested, the routing trace of every decoder iteration — the
        per-iteration expert-activation record consumed by the serving
        simulator.  Any model with this class's ``encode`` / ``decode``
        signatures and ``config`` can share this loop.
        """
        input_ids = np.asarray(input_ids, dtype=np.int64)
        batch = input_ids.shape[0]
        traces: List[List[RoutingTraceEntry]] = []
        with no_grad():
            encoder_trace: List[RoutingTraceEntry] = [] if collect_trace else None
            encoder_hidden = self.encode(input_ids, padding_mask=input_padding_mask,
                                         trace=encoder_trace, top_k=top_k)
            if collect_trace and encoder_trace:
                traces.append(encoder_trace)

            kv_caches = [KVCache() for _ in range(self.config.num_decoder_layers)]
            # Preallocated output buffer: the whole batch decodes in one
            # tensor step per token, with no per-token reallocation.
            generated = np.full((batch, max_new_tokens + 1), eos_id, dtype=np.int64)
            generated[:, 0] = bos_id
            length = 1
            finished = np.zeros(batch, dtype=bool)
            for _ in range(max_new_tokens):
                step_trace: List[RoutingTraceEntry] = [] if collect_trace else None
                last_tokens = generated[:, length - 1:length]
                logits = self.decode(last_tokens, encoder_hidden,
                                     encoder_padding_mask=input_padding_mask,
                                     kv_caches=kv_caches, trace=step_trace, top_k=top_k)
                next_ids = np.argmax(logits.numpy()[:, -1, :], axis=-1)
                next_ids = np.where(finished, eos_id, next_ids)
                generated[:, length] = next_ids
                length += 1
                if collect_trace:
                    traces.append(step_trace)
                finished |= next_ids == eos_id
                if finished.all():
                    break
        return generated[:, :length], traces

    # ------------------------------------------------------------------
    def decoder_moe_block_count(self) -> int:
        return len(self.decoder_moe_positions)

    def encoder_moe_block_count(self) -> int:
        return len(self.encoder_moe_positions)
