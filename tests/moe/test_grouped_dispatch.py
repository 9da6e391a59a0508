"""Grouped expert dispatch ≡ the reference per-expert loop.

:meth:`ExpertPool.forward` buckets all (token, slot) routing pairs by
expert and runs every activated expert as one stacked batched matmul;
:meth:`ExpertPool._forward_loop` is the seed implementation (per-slot ×
per-unique-expert Python loop) kept as the behavioural oracle.  These
tests drive both through random routings — including capacity-dropped
pairs (expert id ``-1``) and ``top_k > 1`` — and require identical outputs
and identical gradients on the hidden states and every expert weight.

The pool keeps every expert's weights in one stack per layer, with each
expert's ``Parameter`` a view into it.  The aliasing tests rebind or copy
the weights every way the engine allows and require the grouped dispatch to
keep matching the loop (which reads the parameters directly), so a stale
stack can never be used.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.moe.expert import ExpertPool
from repro.moe.gating import RoutingDecision
from repro.tensor import SGD, Adam, Tensor

BUDGET = 1e-9


def random_routing(rng, tokens, num_experts, k, drop_rate=0.0):
    """A synthetic RoutingDecision with optional capacity-dropped pairs."""
    indices = rng.integers(0, num_experts, size=(tokens, k))
    if drop_rate > 0:
        dropped = rng.random((tokens, k)) < drop_rate
        indices = np.where(dropped, -1, indices)
    weights = rng.random((tokens, k)) + 0.1
    weights = weights / weights.sum(axis=1, keepdims=True)
    activated = sorted(int(e) for e in np.unique(indices) if e >= 0)
    return RoutingDecision(
        expert_indices=indices, expert_weights=weights,
        router_probs=Tensor(np.zeros((tokens, num_experts))),
        activated_experts=activated, aux_loss=Tensor(0.0))


def run_pool(pool, hidden_data, routing, method):
    hidden = Tensor(hidden_data, requires_grad=True)
    out = method(pool, hidden, routing)
    (out * out).sum().backward()
    grads = {"hidden": np.array(hidden.grad, copy=True)}
    for expert in pool.experts:
        for name, param in (("wi", expert.ffn.wi.weight),
                            ("wo", expert.ffn.wo.weight)):
            key = f"expert{expert.expert_id}.{name}"
            grads[key] = (None if param.grad is None
                          else np.array(param.grad, copy=True))
    pool.zero_grad()
    return np.array(out.data, copy=True), grads


def assert_equivalent(pool, hidden_data, routing):
    out_g, grads_g = run_pool(pool, hidden_data, routing, ExpertPool.forward)
    out_l, grads_l = run_pool(pool, hidden_data, routing,
                              ExpertPool._forward_loop)
    assert np.max(np.abs(out_g - out_l)) <= BUDGET
    assert set(grads_g) == set(grads_l)
    for key, gl in grads_l.items():
        gg = grads_g[key]
        if gl is None:
            # The loop never touched this expert; grouped dispatch must not
            # have produced a gradient for it either (None or exact zero).
            assert gg is None or not np.any(gg), key
        else:
            assert gg is not None, key
            assert np.max(np.abs(gg - gl)) <= BUDGET, key


@pytest.mark.parametrize("activation", ["relu", "gelu"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_grouped_matches_loop_random_routing(k, activation):
    rng = np.random.default_rng(k)
    pool = ExpertPool(num_experts=4, d_model=6, d_ff=8, activation=activation,
                      rng=np.random.default_rng(7))
    for trial in range(3):
        hidden = rng.standard_normal((10, 6))
        routing = random_routing(rng, tokens=10, num_experts=4, k=k)
        assert_equivalent(pool, hidden, routing)


@pytest.mark.parametrize("k", [1, 2])
def test_grouped_matches_loop_with_capacity_drops(k):
    rng = np.random.default_rng(11)
    pool = ExpertPool(num_experts=4, d_model=6, d_ff=8,
                      rng=np.random.default_rng(7))
    for drop_rate in (0.2, 0.6):
        hidden = rng.standard_normal((12, 6))
        routing = random_routing(rng, tokens=12, num_experts=4, k=k,
                                 drop_rate=drop_rate)
        assert_equivalent(pool, hidden, routing)


def test_grouped_handles_all_pairs_dropped():
    rng = np.random.default_rng(3)
    pool = ExpertPool(num_experts=4, d_model=6, d_ff=8,
                      rng=np.random.default_rng(7))
    hidden = rng.standard_normal((5, 6))
    routing = random_routing(rng, tokens=5, num_experts=4, k=1, drop_rate=1.0)
    routing.expert_indices[:] = -1
    hidden_t = Tensor(hidden, requires_grad=True)
    out = pool(hidden_t, routing)
    assert out.shape == hidden.shape
    assert not np.any(out.data)
    # Nothing executed, so the output is a disconnected constant — exactly
    # what the reference loop produces for an all-dropped routing.
    assert not out.requires_grad


def test_grouped_handles_single_expert_concentration():
    """Every token routed to one expert — the bucket is maximally full."""
    rng = np.random.default_rng(5)
    pool = ExpertPool(num_experts=4, d_model=6, d_ff=8,
                      rng=np.random.default_rng(7))
    hidden = rng.standard_normal((8, 6))
    routing = random_routing(rng, tokens=8, num_experts=4, k=1)
    routing.expert_indices[:] = 2
    routing.expert_weights[:] = 1.0
    assert_equivalent(pool, hidden, routing)


def test_grouped_rejects_token_mismatch():
    rng = np.random.default_rng(9)
    pool = ExpertPool(num_experts=2, d_model=4, d_ff=4,
                      rng=np.random.default_rng(7))
    routing = random_routing(rng, tokens=6, num_experts=2, k=1)
    with pytest.raises(ValueError):
        pool(Tensor(rng.standard_normal((5, 4))), routing)


# ----------------------------------------------------------------------
# Stacked weights: every rebinding of a parameter's array is seen
# ----------------------------------------------------------------------
def make_pool():
    return ExpertPool(num_experts=4, d_model=6, d_ff=8,
                      rng=np.random.default_rng(7))


def check_against_loop(pool, seed=0):
    rng = np.random.default_rng(seed)
    hidden = rng.standard_normal((10, 6))
    routing = random_routing(rng, tokens=10, num_experts=4, k=2)
    assert_equivalent(pool, hidden, routing)


def grouped_output(pool, seed=0):
    rng = np.random.default_rng(seed)
    hidden = Tensor(rng.standard_normal((10, 6)), requires_grad=True)
    out = pool(hidden, random_routing(rng, tokens=10, num_experts=4, k=2))
    return out


def test_load_state_dict_is_seen():
    pool = make_pool()
    check_against_loop(pool)
    rng = np.random.default_rng(1)
    pool.load_state_dict({name: value + rng.standard_normal(value.shape)
                          for name, value in pool.state_dict().items()})
    check_against_loop(pool)


def test_sgd_step_is_seen():
    pool = make_pool()
    out = grouped_output(pool)
    (out * out).sum().backward()
    SGD(pool.parameters(), lr=0.5).step()  # rebinds param.data
    pool.zero_grad()
    check_against_loop(pool)


def test_direct_data_assignment_is_seen():
    pool = make_pool()
    check_against_loop(pool)
    for param in (pool[2].ffn.wo.weight, pool[0].ffn.wi.weight):
        param.data = param.data * -3.0
    check_against_loop(pool)


@pytest.mark.parametrize("clone", [
    copy.deepcopy,
    lambda pool: pickle.loads(pickle.dumps(pool)),
], ids=["deepcopy", "pickle"])
def test_copied_pool_runs_on_its_own_weights(clone):
    pool = make_pool()
    before = grouped_output(pool).data.copy()
    copied = clone(pool)
    for param in copied.parameters():
        param.data *= -2.0  # in place, on the copy's arrays only
    check_against_loop(copied)
    assert not np.allclose(grouped_output(copied).data, before)
    np.testing.assert_array_equal(grouped_output(pool).data, before)
    check_against_loop(pool)


def test_adam_step_updates_the_stacks_in_place():
    pool = make_pool()
    stacks = list(pool._stacked_weights())
    before = grouped_output(pool)
    (before * before).sum().backward()
    Adam(pool.parameters(), lr=0.1).step()
    pool.zero_grad()
    after = grouped_output(pool)
    assert not np.allclose(after.data, before.data)
    check_against_loop(pool)
    # Adam writes through the views: no re-stack was needed.
    assert all(a is b for a, b in zip(pool._stacked_weights(), stacks))
