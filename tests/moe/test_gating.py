"""Tests for the router (gate function) and the load-balancing loss."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PreGatedSwitchTransformer
from repro.moe import SwitchTransformer, get_config
from repro.moe import gating
from repro.moe.gating import Router, RoutingDecision, load_balancing_loss
from repro.tensor import Tensor
from repro.tensor import functional as F


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestRouter:
    def test_routing_decision_shapes(self, rng):
        router = Router(d_model=16, num_experts=8, top_k=2, rng=rng)
        decision = router(Tensor(rng.standard_normal((10, 16))))
        assert decision.expert_indices.shape == (10, 2)
        assert decision.expert_weights.shape == (10, 2)
        assert decision.router_probs.shape == (10, 8)
        assert decision.num_tokens == 10
        assert decision.top_k == 2

    def test_weights_renormalised(self, rng):
        router = Router(16, 8, top_k=3, rng=rng)
        decision = router(Tensor(rng.standard_normal((5, 16))))
        assert np.allclose(decision.expert_weights.sum(axis=-1), 1.0)

    def test_indices_in_range_and_distinct_per_token(self, rng):
        router = Router(16, 6, top_k=3, rng=rng)
        decision = router(Tensor(rng.standard_normal((20, 16))))
        assert decision.expert_indices.min() >= 0
        assert decision.expert_indices.max() < 6
        for row in decision.expert_indices:
            assert len(set(row.tolist())) == 3

    def test_activated_experts_sorted_unique(self, rng):
        router = Router(16, 8, rng=rng)
        decision = router(Tensor(rng.standard_normal((30, 16))))
        acts = decision.activated_experts
        assert acts == sorted(set(acts))

    def test_top_k_override(self, rng):
        router = Router(16, 8, top_k=1, rng=rng)
        decision = router(Tensor(rng.standard_normal((4, 16))), top_k=4)
        assert decision.expert_indices.shape == (4, 4)

    def test_top1_selects_argmax_of_probs(self, rng):
        router = Router(16, 8, top_k=1, rng=rng)
        router.eval()
        hidden = Tensor(rng.standard_normal((12, 16)))
        decision = router(hidden)
        probs = decision.router_probs.numpy()
        assert np.array_equal(decision.expert_indices[:, 0], probs.argmax(axis=-1))

    def test_requires_2d_input(self, rng):
        router = Router(16, 4, rng=rng)
        with pytest.raises(ValueError):
            router(Tensor(rng.standard_normal((2, 3, 16))))

    def test_invalid_topk(self, rng):
        with pytest.raises(ValueError):
            Router(16, 4, top_k=5)
        router = Router(16, 4, rng=rng)
        with pytest.raises(ValueError):
            router(Tensor(rng.standard_normal((2, 16))), top_k=9)

    def test_jitter_only_in_training(self, rng):
        router = Router(16, 4, jitter=0.5, rng=np.random.default_rng(1))
        hidden = rng.standard_normal((6, 16))
        router.eval()
        a = router(Tensor(hidden)).router_probs.numpy()
        b = router(Tensor(hidden)).router_probs.numpy()
        assert np.allclose(a, b)

    def test_tokens_for_expert(self, rng):
        router = Router(16, 4, rng=rng)
        decision = router(Tensor(rng.standard_normal((10, 16))))
        for expert in decision.activated_experts:
            tokens = decision.tokens_for_expert(expert)
            assert all(expert in decision.expert_indices[t] for t in tokens)

    def test_gate_is_differentiable(self, rng):
        router = Router(16, 4, rng=rng)
        hidden = Tensor(rng.standard_normal((8, 16)), requires_grad=True)
        decision = router(hidden)
        decision.aux_loss.backward()
        assert router.classifier.weight.grad is not None


class TestLoadBalancingLoss:
    def test_uniform_routing_gives_unity(self):
        """Perfectly balanced routing gives a loss of ~1 (the Switch optimum)."""
        num_experts, tokens = 4, 1000
        probs = Tensor(np.full((tokens, num_experts), 1.0 / num_experts))
        indices = np.tile(np.arange(num_experts), tokens // num_experts)[:, None]
        loss = load_balancing_loss(probs, indices, num_experts)
        assert loss.item() == pytest.approx(1.0, rel=1e-6)

    def test_collapsed_routing_is_penalised(self):
        num_experts, tokens = 4, 100
        probs_arr = np.zeros((tokens, num_experts))
        probs_arr[:, 0] = 1.0
        loss = load_balancing_loss(Tensor(probs_arr), np.zeros((tokens, 1), dtype=int), num_experts)
        assert loss.item() == pytest.approx(float(num_experts))

    def test_empty_batch_gives_zero(self):
        loss = load_balancing_loss(Tensor(np.zeros((0, 4))), np.zeros((0, 1), dtype=int), 4)
        assert loss.item() == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           num_experts=st.integers(min_value=2, max_value=16))
    def test_property_loss_at_least_one_for_softmax_probs(self, seed, num_experts):
        """For any softmax routing, the Switch load-balancing loss is >= ~1."""
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((64, num_experts))
        probs = F.softmax(Tensor(logits)).numpy()
        indices = probs.argmax(axis=-1)[:, None]
        loss = load_balancing_loss(Tensor(probs), indices, num_experts)
        assert loss.item() >= 0.99


class TestLazyAuxLoss:
    """``RoutingDecision.aux_loss`` is built on first access, not by the router."""

    MODELS = [SwitchTransformer, PreGatedSwitchTransformer]

    @staticmethod
    def _batch(config):
        rng = np.random.default_rng(4)
        src = rng.integers(4, config.vocab_size, (3, 6))
        tgt = rng.integers(4, config.vocab_size, (3, 5))
        return src, tgt

    @staticmethod
    def _gate_grads(model):
        grads = {name: p.grad.copy() for name, p in model.named_parameters()
                 if "gate" in name and p.grad is not None}
        model.zero_grad()
        return grads

    @pytest.mark.parametrize("model_cls", MODELS)
    def test_forward_aux_equals_eager_loss(self, model_cls):
        config = get_config("tiny_moe_4")
        model = model_cls(config, seed=0)
        src, tgt = self._batch(config)

        lazy = model(src, tgt).aux_loss
        lazy.backward()
        lazy_grads = self._gate_grads(model)

        # The same forward again, with the loss built eagerly from its decisions.
        trace = model(src, tgt).routing_trace
        eager = Tensor(0.0)
        for entry in trace:
            decision = entry.decision
            eager = eager + load_balancing_loss(decision.router_probs, decision.expert_indices,
                                                config.num_experts)
        eager = eager * (1.0 / len(trace))
        eager.backward()
        eager_grads = self._gate_grads(model)

        assert lazy.item() == eager.item()
        assert lazy_grads and lazy_grads.keys() == eager_grads.keys()
        for name, grad in lazy_grads.items():
            assert np.array_equal(grad, eager_grads[name]), name

    @pytest.mark.parametrize("model_cls", MODELS)
    def test_greedy_decode_never_builds_it(self, model_cls, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return load_balancing_loss(*args, **kwargs)

        monkeypatch.setattr(gating, "load_balancing_loss", counting)
        config = get_config("tiny_moe_4")
        model = model_cls(config, seed=0)
        src, tgt = self._batch(config)
        model.greedy_decode(src, bos_id=1, eos_id=-1, max_new_tokens=3, collect_trace=True)
        assert calls == []
        # The counter does see the training forward's accesses.
        trace = model(src, tgt).routing_trace
        assert len(calls) == len(trace) > 0

    def test_explicit_aux_loss_is_kept(self):
        given_loss = Tensor(0.0)
        decision = RoutingDecision(
            expert_indices=np.zeros((2, 1), dtype=np.int64),
            expert_weights=np.ones((2, 1)),
            router_probs=Tensor(np.full((2, 4), 0.25)),
            activated_experts=[0], aux_loss=given_loss)
        assert decision.aux_loss is given_loss
