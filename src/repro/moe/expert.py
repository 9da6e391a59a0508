"""Expert layers for MoE blocks.

An expert is a position-wise FFN with the same dimensions as the dense FFN
it replaces (Figure 1b of the paper).  :class:`ExpertPool` holds the set of
experts that live inside one MoE block and executes a routed batch of tokens
through the activated experts only.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..tensor import FeedForward, Module, ModuleList, Tensor
from ..tensor import primitives as P
from .gating import RoutingDecision


class Expert(Module):
    """A single expert: a dense FFN identified by ``expert_id``."""

    def __init__(self, expert_id: int, d_model: int, d_ff: int, activation: str = "relu",
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.expert_id = expert_id
        self.ffn = FeedForward(d_model, d_ff, activation=activation, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.ffn(x)

    @property
    def num_params(self) -> int:
        return self.num_parameters()


class ExpertPool(Module):
    """The collection of experts inside one MoE block.

    The pool implements the *expert execution* stage: given a
    :class:`~repro.moe.gating.RoutingDecision` it dispatches each token to
    its selected experts, executes only the activated experts, and combines
    the expert outputs weighted by the (renormalised) router probabilities.
    """

    def __init__(self, num_experts: int, d_model: int, d_ff: int, activation: str = "relu",
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_experts < 1:
            raise ValueError("num_experts must be >= 1")
        self.num_experts = num_experts
        self.d_model = d_model
        self.d_ff = d_ff
        self.experts = ModuleList([
            Expert(i, d_model, d_ff, activation=activation, rng=rng) for i in range(num_experts)
        ])
        self._wi = [expert.ffn.wi.weight for expert in self.experts]
        self._wo = [expert.ffn.wo.weight for expert in self.experts]
        # Built by the first forward, so construction followed by
        # ``load_state_dict`` (loading a checkpoint) stacks only once.
        self._stacks: Optional[List[np.ndarray]] = None
        self._views: List[List[np.ndarray]] = []

    def _restack(self) -> None:
        """Copy every expert's weights into one stack per layer; alias them.

        Afterwards ``experts[e].ffn.wi.weight.data`` *is* the view
        ``wi_stack[e]`` (likewise ``wo``), so in-place updates (Adam) reach
        the stacks and the grouped dispatch never re-stacks per call.
        """
        self._stacks = []
        self._views = []
        for params in (self._wi, self._wo):
            stack = np.stack([p.data for p in params])
            views = list(stack)
            for p, view in zip(params, views):
                p.data = view
            self._stacks.append(stack)
            self._views.append(views)

    def _stacked_weights(self) -> List[np.ndarray]:
        """The ``(E, d_model, d_ff)`` / ``(E, d_ff, d_model)`` weight stacks.

        Anything that rebinds a parameter's array (``load_state_dict``,
        ``SGD``, ``param.data = ...``) breaks the aliasing, and so does
        copying the pool (``deepcopy`` and pickling copy each view into an
        array of its own).  The identity check sees either and re-stacks,
        so a stale stack is never used.
        """
        if self._stacks is None or any(
                views[0].base is not stack or any(p._data is not v for p, v in zip(params, views))
                for stack, views, params in zip(self._stacks, self._views, (self._wi, self._wo))):
            self._restack()
        return self._stacks

    def __len__(self) -> int:
        return self.num_experts

    def __getitem__(self, expert_id: int) -> Expert:
        return self.experts[expert_id]

    def forward(self, hidden: Tensor, routing: RoutingDecision) -> Tensor:
        """Execute the activated experts on their routed tokens.

        Uses grouped dispatch (:meth:`_forward_grouped`): tokens are
        bucketed per activated expert and every expert FFN runs as one
        stacked batched matmul per routing round, instead of a Python loop
        over slots × unique experts.

        Parameters
        ----------
        hidden:
            Token representations, shape ``(tokens, d_model)``.
        routing:
            Routing decision produced by the block's gate (or, for pre-gated
            blocks, by the *previous* block's pre-gate).  A negative expert
            index marks a (token, slot) pair dropped by capacity limits; it
            contributes nothing and receives no gradient.

        Returns
        -------
        Tensor of shape ``(tokens, d_model)`` — the weighted combination of
        expert outputs for each token.
        """
        tokens = hidden.shape[0]
        if routing.expert_indices.shape[0] != tokens:
            raise ValueError(
                f"routing covers {routing.expert_indices.shape[0]} tokens but hidden has {tokens}"
            )
        return self._forward_grouped(hidden, routing)

    def _forward_grouped(self, hidden: Tensor, routing: RoutingDecision) -> Tensor:
        """One stacked batched-matmul round over all experts.

        Every (token, slot) routing pair is bucketed by expert into an
        ``(experts, bucket_capacity, d_model)`` dispatch buffer whose row is
        the expert id; the expert FFNs then run as two batched matmuls
        against the pool's weight stacks with the shared activation
        primitive in between, and a single scatter-add combines the weighted
        expert outputs.  Rows of experts no pair routes to stay zero and get
        no gradient.  The hand-written backward mirrors the same batched
        structure, so the per-expert Python loop disappears from both
        passes.  Gradients flow to ``hidden`` and the activated experts'
        weights; router weights get no gradient through the combine
        (matching the loop implementation, where the routing weights enter
        as constants).
        """
        x = hidden.data
        tokens, d_model = x.shape
        k = routing.top_k
        flat_experts = routing.expert_indices.reshape(-1)
        flat_weights = np.asarray(routing.expert_weights, dtype=x.dtype).reshape(-1)
        pair_tokens = np.arange(tokens * k) // k
        valid = flat_experts >= 0
        if not valid.all():
            flat_experts = flat_experts[valid]
            flat_weights = flat_weights[valid]
            pair_tokens = pair_tokens[valid]
        if flat_experts.size == 0:
            return Tensor(np.zeros_like(x))

        # Bucket (token, slot) pairs by expert: pair p lands at
        # (row[p], col[p]) of the (experts, capacity) dispatch grid.
        order = np.argsort(flat_experts, kind="stable")
        row = flat_experts[order]
        sorted_tokens = pair_tokens[order]
        sorted_weights = flat_weights[order][:, None]
        counts = np.bincount(row, minlength=self.num_experts)
        capacity = int(counts.max())
        starts = np.cumsum(counts) - counts
        col = np.arange(row.shape[0]) - starts[row]
        active = np.flatnonzero(counts).tolist()

        stacked_wi, stacked_wo = self._stacked_weights()
        wi_params = [self._wi[e] for e in active]
        wo_params = [self._wo[e] for e in active]
        act_prim = P.RELU if self.experts[0].ffn.activation == "relu" else P.GELU

        dispatch = np.zeros((stacked_wi.shape[0], capacity, d_model), dtype=x.dtype)
        dispatch[row, col] = x[sorted_tokens]
        pre_act = dispatch @ stacked_wi
        activated = act_prim.forward(pre_act)
        expert_out = activated @ stacked_wo  # (E, capacity, d_model)

        # With top_k == 1 every token appears in at most one routing pair,
        # so the combine scatter is a plain assignment; only k > 1 needs the
        # (much slower) unbuffered np.add.at accumulation.
        unique_pairs = k == 1
        output = np.zeros_like(x)
        if unique_pairs:
            output[sorted_tokens] = expert_out[row, col] * sorted_weights
        else:
            np.add.at(output, sorted_tokens, expert_out[row, col] * sorted_weights)

        parents = [hidden, *wi_params, *wo_params]

        def backward(grad: np.ndarray) -> None:
            grad_out = np.zeros_like(expert_out)
            grad_out[row, col] = grad[sorted_tokens] * sorted_weights
            if any(p.requires_grad for p in wo_params):
                grad_wo = activated.transpose(0, 2, 1) @ grad_out
                for e, p in zip(active, wo_params):
                    if p.requires_grad:
                        p._stash(grad_wo[e])
            grad_act = grad_out @ stacked_wo.transpose(0, 2, 1)
            (grad_pre,) = act_prim.vjp(grad_act, activated, (pre_act,), (True,), {})
            if any(p.requires_grad for p in wi_params):
                grad_wi = dispatch.transpose(0, 2, 1) @ grad_pre
                for e, p in zip(active, wi_params):
                    if p.requires_grad:
                        p._stash(grad_wi[e])
            if hidden.requires_grad:
                grad_dispatch = grad_pre @ stacked_wi.transpose(0, 2, 1)
                grad_hidden = np.zeros_like(x)
                if unique_pairs:
                    grad_hidden[sorted_tokens] = grad_dispatch[row, col]
                else:
                    np.add.at(grad_hidden, sorted_tokens, grad_dispatch[row, col])
                hidden._stash(grad_hidden)

        return Tensor._make(output, parents, backward)

    def _forward_loop(self, hidden: Tensor, routing: RoutingDecision) -> Tensor:
        """Reference per-slot × per-unique-expert loop implementation.

        Kept as the behavioural oracle for the grouped dispatch (see
        ``tests/moe/test_grouped_dispatch.py``); not used on the hot path.
        """
        tokens = hidden.shape[0]
        output = Tensor(np.zeros_like(hidden.numpy()))
        k = routing.top_k
        for slot in range(k):
            slot_experts = routing.expert_indices[:, slot]
            slot_weights = routing.expert_weights[:, slot]
            for expert_id in np.unique(slot_experts):
                if expert_id < 0:
                    continue  # capacity-dropped pairs contribute nothing
                token_mask = slot_experts == expert_id
                token_idx = np.nonzero(token_mask)[0]
                expert_out = self.experts[int(expert_id)](hidden[token_idx])
                weights = Tensor(slot_weights[token_idx][:, None])
                contribution = expert_out * weights
                # Scatter-add the contribution back into the output tensor.
                scatter = np.zeros((tokens, len(token_idx)),
                                   dtype=contribution.dtype)
                scatter[token_idx, np.arange(len(token_idx))] = 1.0
                output = output + Tensor(scatter).matmul(contribution)
        return output

    def expert_param_counts(self) -> Dict[int, int]:
        """Parameter count per expert (used by the capacity model tests)."""
        return {expert.expert_id: expert.num_parameters() for expert in self.experts}

    def activated_subset(self, routing: RoutingDecision) -> List[int]:
        """Expert ids that must be resident to execute ``routing``."""
        return list(routing.activated_experts)
