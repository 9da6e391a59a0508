"""Gate (router) functions for MoE blocks.

The gate function assigns each token a probability distribution over the
experts of an MoE block and selects the top-k experts to activate.  This
module implements the conventional Switch-Transformer router (top-1 with a
load-balancing auxiliary loss) and generalises it to top-k so that the
"number of activated experts" sweep of Figure 14 can be reproduced.

The same :class:`Router` module is reused by the pre-gate function of the
core contribution (:mod:`repro.core.pregate`); what changes there is *which
block's experts* the routing decision applies to, not the router mechanics.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..tensor import Linear, Module, Tensor
from ..tensor import functional as F


class RoutingDecision:
    """The outcome of evaluating a gate function on a batch of tokens.

    Attributes
    ----------
    expert_indices:
        Integer array of shape ``(tokens, k)`` — the experts each token is
        routed to, sorted by descending router probability.
    expert_weights:
        Router probabilities for the selected experts, shape ``(tokens, k)``
        (renormalised over the selected k so they sum to 1 per token).
    router_probs:
        Full softmax distribution over experts, shape ``(tokens, num_experts)``
        (kept as a Tensor so the auxiliary loss can back-propagate).
    activated_experts:
        Sorted list of the distinct expert ids activated by *any* token in
        the batch.  This is the set the serving system must have resident in
        GPU memory for the block's execution stage.
    aux_loss:
        Switch-Transformer load-balancing loss for this routing decision.
        Unless given, it is built from ``router_probs`` on first access (in
        the grad mode of that access), so inference that never reads it
        never pays for it.
    """

    __slots__ = ("expert_indices", "expert_weights", "router_probs",
                 "activated_experts", "_aux_loss")

    def __init__(self, expert_indices: np.ndarray, expert_weights: np.ndarray,
                 router_probs: Tensor, activated_experts: List[int],
                 aux_loss: Optional[Tensor] = None) -> None:
        self.expert_indices = expert_indices
        self.expert_weights = expert_weights
        self.router_probs = router_probs
        self.activated_experts = activated_experts
        self._aux_loss = aux_loss

    @property
    def aux_loss(self) -> Tensor:
        if self._aux_loss is None:
            self._aux_loss = load_balancing_loss(
                self.router_probs, self.expert_indices, self.router_probs.shape[-1])
        return self._aux_loss

    @property
    def num_tokens(self) -> int:
        return int(self.expert_indices.shape[0])

    @property
    def top_k(self) -> int:
        return int(self.expert_indices.shape[1])

    def tokens_for_expert(self, expert_id: int) -> np.ndarray:
        """Return indices of tokens routed to ``expert_id`` (any of their k slots)."""
        rows, _ = np.nonzero(self.expert_indices == expert_id)
        return np.unique(rows)


def load_balancing_loss(router_probs: Tensor, expert_indices: np.ndarray, num_experts: int) -> Tensor:
    """Switch-Transformer auxiliary load-balancing loss.

    ``loss = num_experts * sum_e f_e * P_e`` where ``f_e`` is the fraction of
    tokens dispatched to expert *e* (top-1 assignment) and ``P_e`` the mean
    router probability assigned to expert *e*.  Minimised when routing is
    uniform across experts.
    """
    tokens = expert_indices.shape[0]
    if tokens == 0:
        return Tensor(0.0)
    top1 = expert_indices[:, 0]
    counts = np.bincount(top1, minlength=num_experts).astype(np.float64)
    fraction_dispatched = counts / tokens
    mean_probs = router_probs.mean(axis=0)
    return (mean_probs * Tensor(fraction_dispatched)).sum() * float(num_experts)


class Router(Module):
    """Softmax router (gate function) over ``num_experts`` experts.

    Implemented, as in the paper, as a compact linear projection from the
    token representation to expert logits followed by a softmax — "the gate
    function is implemented as a compact MLP layer having low computation
    requirement" (Figure 7 caption).

    Parameters
    ----------
    d_model:
        Token representation dimension.
    num_experts:
        Number of experts to route over.
    top_k:
        Number of experts activated per token (Switch default: 1).
    jitter:
        Multiplicative input noise applied during training only; improves
        router exploration (from the Switch-Transformer recipe).
    """

    def __init__(self, d_model: int, num_experts: int, top_k: int = 1,
                 jitter: float = 0.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_experts < 1:
            raise ValueError("num_experts must be >= 1")
        if not 1 <= top_k <= num_experts:
            raise ValueError(f"top_k must be in [1, {num_experts}], got {top_k}")
        self.d_model = d_model
        self.num_experts = num_experts
        self.top_k = top_k
        self.jitter = jitter
        self._rng = rng or np.random.default_rng()
        self.classifier = Linear(d_model, num_experts, bias=False, rng=rng)

    def forward(self, hidden: Tensor, top_k: Optional[int] = None) -> RoutingDecision:
        """Route a batch of token representations.

        Parameters
        ----------
        hidden:
            Tensor of shape ``(tokens, d_model)`` (callers flatten batch and
            sequence dimensions before routing).
        top_k:
            Optional override of the configured top-k, used by the Figure 14
            sweep over the number of activated experts.
        """
        if hidden.ndim != 2:
            raise ValueError(f"router expects (tokens, d_model), got shape {hidden.shape}")
        k = self.top_k if top_k is None else top_k
        if not 1 <= k <= self.num_experts:
            raise ValueError(f"top_k must be in [1, {self.num_experts}], got {k}")

        inputs = hidden
        if self.training and self.jitter > 0:
            noise = self._rng.uniform(1.0 - self.jitter, 1.0 + self.jitter, size=hidden.shape)
            inputs = hidden * Tensor(noise)

        logits = self.classifier(inputs)
        probs = F.softmax(logits, axis=-1)

        indices, selected = F.top_k_indices(probs.data, k)
        denom = np.maximum(selected.sum(axis=-1, keepdims=True), 1e-9)
        weights = selected / denom

        # The load-balancing loss is left to RoutingDecision.aux_loss.
        return RoutingDecision(
            expert_indices=indices,
            expert_weights=weights,
            router_probs=probs,
            activated_experts=np.unique(indices).tolist(),
        )
