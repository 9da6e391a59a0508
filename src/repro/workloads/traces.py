"""Expert-activation traces for the serving simulator.

The serving engines need to know, for every MoE block evaluation, *which*
experts are activated.  At paper scale we cannot run the real Switch
checkpoints, so traces come from one of two sources:

* :class:`TraceGenerator` — synthetic routing that mirrors the statistical
  behaviour of a trained top-k router: each token independently picks
  ``top_k`` experts from a (optionally skewed) categorical distribution.
  The skew knob reproduces the "hot expert" phenomenon the caching study of
  Figure 15 relies on.
* :func:`trace_from_routing` — converts the routing trace recorded by the
  functional numpy models (tiny configurations) into the same format, so the
  functional and performance layers agree on the interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..moe.configs import ModelConfig

#: Activated experts of one MoE block evaluation: a sorted tuple of distinct
#: expert ids, immutable so that blocks can be shared.
BlockActivation = Tuple[int, ...]

#: Activations of every MoE block in one forward pass (encoder pass or one
#: decoder iteration), indexed by MoE-block position.
IterationActivations = List[BlockActivation]


@dataclass
class RequestTrace:
    """Expert activations of one inference request.

    Attributes
    ----------
    input_length:
        Number of input (encoder) tokens.
    output_length:
        Number of generated tokens, i.e. decoder iterations.
    encoder_activations:
        One :data:`BlockActivation` per encoder MoE block (one encoder pass).
    decode_activations:
        One :data:`IterationActivations` per decoder iteration.  Blocks may
        be shared between iterations and requests.
    """

    input_length: int
    output_length: int
    encoder_activations: IterationActivations = field(default_factory=list)
    decode_activations: List[IterationActivations] = field(default_factory=list)

    @property
    def num_decoder_moe_blocks(self) -> int:
        return len(self.decode_activations[0]) if self.decode_activations else 0

    def total_decode_expert_activations(self) -> int:
        return sum(len(block) for it in self.decode_activations for block in it)


class TraceGenerator:
    """Synthetic expert-activation trace generator.

    Parameters
    ----------
    config:
        Model configuration (defines the number of MoE blocks and experts).
    skew:
        Zipf-like skew of the expert popularity distribution.  ``0`` gives
        uniform routing (the load-balanced ideal); larger values concentrate
        activations on a few hot experts, which is what makes expert caching
        effective (Figure 15).
    top_k:
        Experts activated per token; defaults to the config's ``top_k``.
    seed:
        RNG seed for reproducibility.
    """

    def __init__(self, config: ModelConfig, skew: float = 0.0,
                 top_k: Optional[int] = None, seed: int = 0) -> None:
        if skew < 0:
            raise ValueError("skew must be non-negative")
        self.config = config
        self.skew = skew
        self.top_k = top_k if top_k is not None else config.top_k
        if not 1 <= self.top_k <= config.num_experts:
            raise ValueError(
                f"top_k must be in [1, {config.num_experts}], got {self.top_k}")
        self._rng = np.random.default_rng(seed)
        self._probabilities = self._expert_distribution()
        #: log-probabilities for the Gumbel top-k sampler (cached per shape:
        #: the distribution is a constant of the generator).
        self._log_probabilities = np.log(self._probabilities)
        #: Normalised CDF for the top-1 sampler.  ``Generator.choice(p=...)``
        #: rebuilds this cumsum on every call; caching it and drawing via
        #: ``random`` + ``searchsorted`` consumes the identical RNG stream
        #: (that is exactly ``choice``'s internal algorithm), so traces are
        #: bit-identical to the ``choice`` path.
        self._cdf = self._probabilities.cumsum()
        self._cdf /= self._cdf[-1]
        #: The one shared block of each expert for single-token top-1 draws
        #: (every decode block at batch 1): indexing this object array by
        #: the drawn ids yields the blocks without allocating any.
        self._singletons = np.empty(config.num_experts, dtype=object)
        for expert in range(config.num_experts):
            self._singletons[expert] = (expert,)

    def _expert_distribution(self) -> np.ndarray:
        num_experts = self.config.num_experts
        if self.skew == 0.0:
            return np.full(num_experts, 1.0 / num_experts)
        ranks = np.arange(1, num_experts + 1, dtype=np.float64)
        weights = ranks ** (-self.skew)
        return weights / weights.sum()

    # ------------------------------------------------------------------
    def _draw_blocks(self, num_blocks: int, num_tokens: int,
                     top_k: Optional[int]) -> List[BlockActivation]:
        """``num_blocks`` successive blocks of ``num_tokens`` tokens each.

        One RNG call covers every block: NumPy fills a bulk draw in order
        from the generator's stream, so ``n`` blocks drawn at once equal
        ``n`` blocks drawn one after another.  Top-1 routing is a
        categorical draw per token; top-k draws per-token Gumbel keys and
        takes each row's k largest — the Gumbel-top-k trick, which samples
        exactly the same without-replacement (Plackett–Luce) distribution
        as sequential renormalised draws.
        """
        k = top_k if top_k is not None else self.top_k
        if k < 1:
            raise ValueError(f"top_k must be >= 1, got {k}")
        num_experts = self.config.num_experts
        k = min(k, num_experts)
        if k == 1:
            experts = self._cdf.searchsorted(
                self._rng.random(num_blocks * num_tokens), side="right")
            if num_tokens == 1:
                return self._singletons[experts].tolist()
            experts = experts.reshape(num_blocks, num_tokens)
        else:
            keys = self._rng.gumbel(size=(num_blocks * num_tokens, num_experts))
            keys += self._log_probabilities
            experts = np.argpartition(-keys, k - 1, axis=1)[:, :k].reshape(
                num_blocks, num_tokens * k)
        return [tuple(sorted(set(row))) for row in experts.tolist()]

    def block_activation(self, num_tokens: int, top_k: Optional[int] = None) -> BlockActivation:
        """Distinct experts activated when ``num_tokens`` tokens are routed."""
        return self._draw_blocks(1, num_tokens, top_k)[0]

    def iteration_activations(self, num_tokens: int, num_moe_blocks: int,
                              top_k: Optional[int] = None) -> IterationActivations:
        """Activations of every MoE block of one forward pass."""
        return self._draw_blocks(num_moe_blocks, num_tokens, top_k)

    def request_trace(self, input_length: int, output_length: int,
                      batch_size: int = 1, top_k: Optional[int] = None) -> RequestTrace:
        """A full request: one encoder pass plus ``output_length`` decoder iterations."""
        if input_length < 1 or output_length < 1:
            raise ValueError("input_length and output_length must be >= 1")
        encoder_blocks = self.config.num_moe_blocks("encoder")
        decoder_blocks = self.config.num_moe_blocks("decoder")
        encoder = self._draw_blocks(encoder_blocks, input_length * batch_size, top_k)
        blocks = self._draw_blocks(output_length * decoder_blocks, batch_size, top_k)
        decode = [blocks[i * decoder_blocks:(i + 1) * decoder_blocks]
                  for i in range(output_length)]
        return RequestTrace(input_length=input_length, output_length=output_length,
                            encoder_activations=encoder, decode_activations=decode)

    def workload(self, num_requests: int, input_length: int, output_length: int,
                 batch_size: int = 1, top_k: Optional[int] = None) -> List[RequestTrace]:
        """A list of request traces forming one workload."""
        return [self.request_trace(input_length, output_length, batch_size=batch_size, top_k=top_k)
                for _ in range(num_requests)]


def expected_distinct_experts(num_tokens: int, num_experts: int, top_k: int = 1) -> float:
    """Expected number of distinct experts activated by uniform top-k routing.

    Used by the analytic peak-memory and capacity planners; matches the
    empirical mean of :meth:`TraceGenerator.block_activation` under zero
    skew.
    """
    if num_experts <= 0:
        raise ValueError("num_experts must be positive")
    draws = num_tokens * min(top_k, num_experts)
    return num_experts * (1.0 - (1.0 - 1.0 / num_experts) ** draws)


def trace_from_routing(stack_traces: Sequence[Sequence], input_length: int) -> RequestTrace:
    """Build a :class:`RequestTrace` from the functional model's recorded routing.

    ``stack_traces`` is the list returned by ``greedy_decode(collect_trace=True)``:
    the first entry holds the encoder pass (if the encoder has MoE blocks) and
    subsequent entries hold one decoder iteration each.
    """
    if not stack_traces:
        raise ValueError("empty routing trace")
    encoder_entries = [e for e in stack_traces[0] if e.stack == "encoder"]
    if encoder_entries:
        encoder = [tuple(sorted(e.activated_experts)) for e in encoder_entries]
        decode_iters = stack_traces[1:]
    else:
        encoder = []
        decode_iters = stack_traces
    decode = []
    for iteration in decode_iters:
        decoder_entries = [e for e in iteration if e.stack == "decoder"]
        decode.append([tuple(sorted(e.activated_experts)) for e in decoder_entries])
    return RequestTrace(input_length=input_length, output_length=len(decode),
                        encoder_activations=encoder, decode_activations=decode)
