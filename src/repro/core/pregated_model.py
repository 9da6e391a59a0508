"""Pre-gated Switch-Transformer model.

This is the paper's modified model architecture: structurally identical to
the conventional Switch-Transformer of :mod:`repro.moe.transformer`, except
that the gate functions are re-wired according to the pre-gate schedule
(Section IV-B, Figures 5 and 6):

* each MoE block's experts are selected by the pre-gate of the block
  ``activation_level`` positions earlier in the same stack;
* the first MoE block additionally hosts the "first gates" that select
  experts for the leading blocks;
* the last block(s) carry no pre-gate.

Pre-gate chains are maintained *within* the encoder stack and *within* each
decoder iteration; they never cross decoder iterations, matching Figure 6.

The class can be initialised from a conventional model's weights
(:meth:`PreGatedSwitchTransformer.load_from_conventional`) to reproduce the
paper's fine-tuning recipe: reuse the pre-trained conventional weights as-is
and incrementally train the pre-gate functions during fine-tuning.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..tensor import (
    DecodeCache,
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
    Tensor,
)
from ..moe.configs import ModelConfig
from ..moe.gating import RoutingDecision
from ..moe.transformer import RoutingTraceEntry, Seq2SeqOutput, SwitchTransformer, _moe_layer_positions
from .pregate import PreGateSchedule, PreGatedMoEBlock


class _PreGatedStackState:
    """Pending routing decisions for one stack traversal.

    ``pending[i]`` holds the routing decision that will be consumed by MoE
    block *i* of the stack.  Entries for the leading blocks are filled by the
    first gates (evaluated at block 0); later entries are filled by pre-gates
    as the traversal progresses.
    """

    def __init__(self, num_blocks: int) -> None:
        self.pending: List[Optional[RoutingDecision]] = [None] * num_blocks

    def set(self, block_index: int, decision: RoutingDecision) -> None:
        if self.pending[block_index] is not None:
            raise RuntimeError(f"routing for MoE block {block_index} was already selected")
        self.pending[block_index] = decision

    def take(self, block_index: int) -> RoutingDecision:
        decision = self.pending[block_index]
        if decision is None:
            raise RuntimeError(
                f"no routing decision available for MoE block {block_index}; "
                "the pre-gate chain was not evaluated in order"
            )
        return decision


class PreGatedEncoderBlock(Module):
    """Encoder block whose MoE experts are selected via the pre-gate chain."""

    def __init__(self, config: ModelConfig, layer_index: int, use_moe: bool,
                 moe_block_index: int = 0, schedule: Optional[PreGateSchedule] = None,
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.layer_index = layer_index
        self.use_moe = use_moe
        self.moe_block_index = moe_block_index
        self.attention = MultiHeadAttention(config.d_model, config.num_heads, causal=False, rng=rng)
        self.attn_norm = LayerNorm(config.d_model)
        self.ffn_norm = LayerNorm(config.d_model)
        self.dropout = Dropout(dropout, rng=rng)
        if use_moe:
            self.moe = PreGatedMoEBlock(config.d_model, config.d_ff, config.num_experts,
                                        top_k=config.top_k, block_index=moe_block_index,
                                        schedule=schedule, rng=rng)
        else:
            self.ffn = FeedForward(config.d_model, config.d_ff, rng=rng)

    def forward(self, hidden: Tensor, state: Optional[_PreGatedStackState],
                padding_mask: Optional[np.ndarray] = None,
                top_k: Optional[int] = None) -> Tuple[Tensor, Optional[RoutingDecision]]:
        attn_out = self.attention(self.attn_norm(hidden), key_padding_mask=padding_mask)
        hidden = hidden + self.dropout(attn_out)

        normed = self.ffn_norm(hidden)
        routing = None
        if self.use_moe:
            batch, length, dim = normed.shape
            flat = normed.reshape(batch * length, dim)
            routing = _run_pregated_moe(self.moe, flat, state, top_k=top_k)
            moe_out = self.moe.execute(flat, routing)
            ffn_out = moe_out.reshape(batch, length, dim)
        else:
            ffn_out = self.ffn(normed)
        hidden = hidden + self.dropout(ffn_out)
        return hidden, routing


class PreGatedDecoderBlock(Module):
    """Decoder block whose MoE experts are selected via the pre-gate chain."""

    def __init__(self, config: ModelConfig, layer_index: int, use_moe: bool,
                 moe_block_index: int = 0, schedule: Optional[PreGateSchedule] = None,
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
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
            self.moe = PreGatedMoEBlock(config.d_model, config.d_ff, config.num_experts,
                                        top_k=config.top_k, block_index=moe_block_index,
                                        schedule=schedule, rng=rng)
        else:
            self.ffn = FeedForward(config.d_model, config.d_ff, rng=rng)

    def forward(self, hidden: Tensor, encoder_hidden: Tensor, state: Optional[_PreGatedStackState],
                encoder_padding_mask: Optional[np.ndarray] = None,
                kv_cache: Optional[DecodeCache] = None,
                top_k: Optional[int] = None) -> Tuple[Tensor, Optional[RoutingDecision]]:
        self_kv = cross_kv = None
        if kv_cache is not None:
            self_kv, cross_kv = kv_cache.self_kv, kv_cache.cross_kv
        self_out = self.self_attention(self.self_norm(hidden), kv_cache=self_kv)
        hidden = hidden + self.dropout(self_out)

        cross_out = self.cross_attention(
            self.cross_norm(hidden), key=encoder_hidden, value=encoder_hidden,
            key_padding_mask=encoder_padding_mask, kv_cache=cross_kv,
        )
        hidden = hidden + self.dropout(cross_out)

        normed = self.ffn_norm(hidden)
        routing = None
        if self.use_moe:
            batch, length, dim = normed.shape
            flat = normed.reshape(batch * length, dim)
            routing = _run_pregated_moe(self.moe, flat, state, top_k=top_k)
            moe_out = self.moe.execute(flat, routing)
            ffn_out = moe_out.reshape(batch, length, dim)
        else:
            ffn_out = self.ffn(normed)
        hidden = hidden + self.dropout(ffn_out)
        return hidden, routing


def _run_pregated_moe(moe: PreGatedMoEBlock, flat: Tensor,
                      state: Optional[_PreGatedStackState],
                      top_k: Optional[int] = None) -> RoutingDecision:
    """Resolve the routing decision for ``moe`` and advance the pre-gate chain.

    At block 0 the first gates are evaluated (filling the leading pending
    entries).  At every block with a pre-gate the pre-gate selects experts
    for the block ``activation_level`` ahead.  The block's own routing is
    then *consumed* from the pending state — it was produced earlier, which
    is exactly what gives the serving system its prefetch window.
    """
    if state is None:
        raise RuntimeError("pre-gated MoE blocks require a stack state")
    idx = moe.block_index
    if idx == 0:
        for target in range(len(moe.first_gates)):
            state.set(target, moe.select_first(flat, target, top_k=top_k))
    future = moe.select_next(flat, top_k=top_k)
    if future is not None:
        state.set(idx + moe.schedule.activation_level, future)
    return state.take(idx)


class PreGatedSwitchTransformer(Module):
    """Switch-Transformer with the pre-gated MoE architecture.

    Parameters
    ----------
    config:
        Model configuration (must be an MoE configuration).
    activation_level:
        How many MoE blocks ahead each pre-gate selects for (``N`` in the
        paper's Figure 13; default 1).
    """

    def __init__(self, config: ModelConfig, activation_level: int = 1,
                 dropout: float = 0.0, seed: int = 0) -> None:
        super().__init__()
        if not config.is_moe:
            raise ValueError("PreGatedSwitchTransformer requires an MoE configuration")
        if activation_level < 1:
            raise ValueError("activation_level must be >= 1")
        self.config = config
        self.activation_level = activation_level
        rng = np.random.default_rng(seed)

        self.encoder_moe_positions = _moe_layer_positions(
            config.num_encoder_layers, config.moe_layer_frequency)
        self.decoder_moe_positions = _moe_layer_positions(
            config.num_decoder_layers, config.moe_layer_frequency)

        self.encoder_schedule = PreGateSchedule(
            num_blocks=max(len(self.encoder_moe_positions), 1),
            activation_level=activation_level)
        self.decoder_schedule = PreGateSchedule(
            num_blocks=max(len(self.decoder_moe_positions), 1),
            activation_level=activation_level)

        self.embedding = Embedding(config.vocab_size, config.d_model, rng=rng)

        encoder_blocks = []
        moe_idx = 0
        for i in range(config.num_encoder_layers):
            use_moe = i in self.encoder_moe_positions
            encoder_blocks.append(PreGatedEncoderBlock(
                config, i, use_moe, moe_block_index=moe_idx,
                schedule=self.encoder_schedule, dropout=dropout, rng=rng))
            moe_idx += int(use_moe)
        self.encoder_blocks = ModuleList(encoder_blocks)
        self.encoder_final_norm = LayerNorm(config.d_model)

        decoder_blocks = []
        moe_idx = 0
        for i in range(config.num_decoder_layers):
            use_moe = i in self.decoder_moe_positions
            decoder_blocks.append(PreGatedDecoderBlock(
                config, i, use_moe, moe_block_index=moe_idx,
                schedule=self.decoder_schedule, dropout=dropout, rng=rng))
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
        state = _PreGatedStackState(len(self.encoder_moe_positions))
        for block in self.encoder_blocks:
            hidden, routing = block(hidden, state, padding_mask=padding_mask, top_k=top_k)
            if routing is not None and trace is not None:
                trace.append(RoutingTraceEntry("encoder", block.layer_index,
                                               block.moe_block_index, routing))
        return self.encoder_final_norm(hidden)

    def decode(self, decoder_ids: np.ndarray, encoder_hidden: Tensor,
               encoder_padding_mask: Optional[np.ndarray] = None,
               kv_caches: Optional[List[DecodeCache]] = None,
               trace: Optional[List[RoutingTraceEntry]] = None,
               top_k: Optional[int] = None) -> Tensor:
        hidden = self.embedding(decoder_ids)
        state = _PreGatedStackState(len(self.decoder_moe_positions))
        for i, block in enumerate(self.decoder_blocks):
            cache = kv_caches[i] if kv_caches is not None else None
            hidden, routing = block(hidden, encoder_hidden, state,
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

    # Greedy decoding is the same loop over this class's encode / decode.
    greedy_decode = SwitchTransformer.greedy_decode

    # ------------------------------------------------------------------
    # Weight reuse from a conventional model (Section IV-B)
    # ------------------------------------------------------------------
    def load_from_conventional(self, conventional: SwitchTransformer) -> None:
        """Initialise from a pre-trained conventional Switch-Transformer.

        All shared parameters (embeddings, attention, norms, experts, LM
        head) are copied as-is.  Gate functions are re-mapped: the gate that
        used to select experts for MoE block *i* initialises whichever gate
        now selects experts for block *i* under the pre-gate schedule (a
        first gate or an earlier block's pre-gate).  The pre-gates are then
        fine-tuned by the trainer, which matches the paper's recipe of
        incrementally training pre-gates during fine-tuning.
        """
        if conventional.config.name != self.config.name:
            raise ValueError(
                "conventional and pre-gated models must share a configuration: "
                f"{conventional.config.name!r} vs {self.config.name!r}"
            )
        source = conventional.state_dict()
        target_names = dict(self.named_parameters())
        remapped: Dict[str, np.ndarray] = {}
        for name, value in source.items():
            new_name = self._remap_conventional_name(name)
            if new_name is not None and new_name in target_names:
                remapped[new_name] = value
        self.load_state_dict(remapped, strict=False)

    def _remap_conventional_name(self, name: str) -> Optional[str]:
        """Map a conventional parameter name onto this model's namespace."""
        # Conventional MoE blocks live under "...moe.gate.*" and
        # "...moe.experts.*"; pre-gated blocks keep "...moe.experts.*" but
        # their gates are re-wired.
        if ".moe.gate." not in name:
            return name  # experts, attention, norms, embeddings are verbatim

        # name looks like "{stack}_blocks.{layer}.moe.gate.classifier.weight"
        parts = name.split(".")
        stack_attr, layer_str = parts[0], parts[1]
        layer_index = int(layer_str)
        suffix = ".".join(parts[3:])  # "gate.classifier.weight"
        gate_suffix = suffix[len("gate."):]

        if stack_attr == "encoder_blocks":
            positions = self.encoder_moe_positions
            schedule = self.encoder_schedule
        elif stack_attr == "decoder_blocks":
            positions = self.decoder_moe_positions
            schedule = self.decoder_schedule
        else:
            return name
        if layer_index not in positions:
            return None
        moe_index = positions.index(layer_index)

        if schedule.selector_of(moe_index) == "first_gate":
            first_layer = positions[0]
            return (f"{stack_attr}.{first_layer}.moe.first_gates.{moe_index}.{gate_suffix}")
        selecting = schedule.selecting_block(moe_index)
        selecting_layer = positions[selecting]
        return f"{stack_attr}.{selecting_layer}.moe.pre_gate.{gate_suffix}"
