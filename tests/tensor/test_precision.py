"""Precision-policy tests: bit-identity, tolerances, masters, dtypes.

The contract under test (see ``repro/tensor/precision.py`` and the
"Precision policy" section of DESIGN.md):

* ``pure_fp64`` (the default) is **bit-identical** to the pre-policy
  engine — pinned by a golden fixture recorded before the policy layer
  landed (loss hex, sha256 of every grad and post-Adam-step parameter,
  greedy-decoded tokens);
* ``pure_fp32`` and ``mixed`` track the fp64 loss and gradients within
  the documented budgets on random graphs and on the real model;
* ``mixed`` keeps fp64 Adam master weights whose tiny updates survive
  (and eventually surface in) the fp32 working copies;
* the KV cache preserves its dtype across capacity doubling;
* explicit dtypes are validated with errors naming the offender.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tensor as T
from repro.tensor import KVCache, Tensor, no_grad, use_precision
from repro.tensor import functional as F
from repro.tensor import precision as PR
from repro.moe.configs import get_config
from repro.moe.transformer import SwitchTransformer

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_fp64_trainstep.json")


# ----------------------------------------------------------------------
# Golden bit-identity: pure_fp64 == the pre-policy engine, exactly.
# ----------------------------------------------------------------------
def _tree_digest(items):
    """Order-sensitive sha256 over (name, dtype, bytes); None-safe."""
    digest = hashlib.sha256()
    for name, arr in items:
        digest.update(name.encode())
        if arr is None:
            digest.update(b"<none>")
            continue
        contiguous = np.ascontiguousarray(arr)
        digest.update(str(contiguous.dtype).encode())
        digest.update(contiguous.tobytes())
    return digest.hexdigest()


def _golden_trainstep():
    golden = json.load(open(GOLDEN_PATH))
    config = get_config(golden["config"])
    rng = np.random.default_rng(golden["seed"])
    batch, in_len, out_len = (golden["batch"], golden["input_length"],
                              golden["output_length"])
    enc = rng.integers(1, config.vocab_size, size=(batch, in_len))
    dec = rng.integers(1, config.vocab_size, size=(batch, out_len))
    tgt = rng.integers(1, config.vocab_size, size=(batch, out_len))
    model = SwitchTransformer(config, seed=golden["seed"]).train()
    opt = T.Adam(model.parameters(), lr=1e-4)
    out = model(enc, dec)
    loss = F.cross_entropy(out.logits, tgt, ignore_index=0)
    loss = loss + out.aux_loss * 1e-2
    loss.backward()
    named = list(model.named_parameters())
    grad_sha = _tree_digest([(n, p.grad) for n, p in named])
    T.clip_grad_norm(model.parameters(), 1.0)
    opt.step()
    param_sha = _tree_digest([(n, p.data) for n, p in named])
    model.eval()
    generated, _ = model.greedy_decode(enc, bos_id=1, eos_id=0,
                                       max_new_tokens=6)
    return golden, float(loss.numpy()), grad_sha, param_sha, generated


def test_pure_fp64_bit_identical_to_golden_fixture():
    golden, loss, grad_sha, param_sha, generated = _golden_trainstep()
    assert float.hex(loss) == golden["loss_hex"]
    assert grad_sha == golden["grad_sha256"]
    assert param_sha == golden["post_step_param_sha256"]
    assert generated.tolist() == golden["generated_tokens"]


def test_pure_fp64_bit_identical_under_explicit_policy():
    """An explicit ``use_precision("pure_fp64")`` is the ambient default."""
    golden, loss, grad_sha, param_sha, generated = _golden_trainstep()
    with use_precision("pure_fp64"):
        _, loss2, grad2, param2, gen2 = _golden_trainstep()
    assert loss == loss2
    assert grad_sha == grad2 and param_sha == param2
    assert generated.tolist() == gen2.tolist()


# ----------------------------------------------------------------------
# use_precision semantics.
# ----------------------------------------------------------------------
def test_use_precision_context_manager_restores():
    assert T.current_precision_name() == "pure_fp64"
    with use_precision("mixed"):
        assert T.current_precision_name() == "mixed"
        with use_precision("pure_fp32"):
            assert T.current_precision_name() == "pure_fp32"
        assert T.current_precision_name() == "mixed"
    assert T.current_precision_name() == "pure_fp64"


def test_use_precision_global_switch():
    use_precision("pure_fp32")
    try:
        assert T.current_precision_name() == "pure_fp32"
        assert Tensor([1.0, 2.0]).dtype == np.float32
    finally:
        use_precision("pure_fp64")
    assert T.current_precision_name() == "pure_fp64"


def test_use_precision_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown precision policy"):
        use_precision("bf16")


def test_policy_table():
    mixed = PR.POLICIES["mixed"]
    assert mixed.compute_dtype == np.float32
    assert mixed.reduction_dtype == np.float64
    assert mixed.keeps_master_weights and mixed.master_dtype == np.float64
    for name in ("pure_fp64", "pure_fp32"):
        assert not PR.POLICIES[name].keeps_master_weights


# ----------------------------------------------------------------------
# Explicit dtypes: constructors, astype, validation.
# ----------------------------------------------------------------------
def test_constructor_dtype_kwargs():
    assert Tensor([1.0], dtype=np.float32).dtype == np.float32
    assert T.tensor([1.0], dtype="float32").dtype == np.float32
    assert T.zeros((2, 3), dtype=np.float32).dtype == np.float32
    assert T.ones((2,), dtype=np.float64).dtype == np.float64
    assert T.randn((2, 2), dtype=np.float32).dtype == np.float32


def test_randn_same_weights_across_dtypes():
    a = T.randn((3, 4), rng=np.random.default_rng(7), dtype=np.float64)
    b = T.randn((3, 4), rng=np.random.default_rng(7), dtype=np.float32)
    np.testing.assert_array_equal(a.numpy().astype(np.float32), b.numpy())


@pytest.mark.parametrize("bad", [np.int32, np.float16, np.complex128, "int64",
                                 bool])
def test_unsupported_dtype_error_names_offender(bad):
    resolved = np.dtype(bad).name
    with pytest.raises(ValueError, match=resolved):
        Tensor([1.0], dtype=bad)
    with pytest.raises(ValueError, match=resolved):
        T.zeros((2,), dtype=bad)


def test_astype_values_and_grad_flow():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    y = x.astype(np.float32)
    assert y.dtype == np.float32
    assert y.astype(np.float64).dtype == np.float64
    (y * Tensor(np.float32(2.0))).sum().backward()
    # The astype VJP casts the gradient back to the input dtype.
    assert x.grad.dtype == np.float64
    np.testing.assert_allclose(x.grad, 2.0)


def test_astype_same_dtype_is_identity():
    x = Tensor(np.array([1.0, 2.0]))
    assert x.astype(np.float64) is x


def test_astype_rejects_unsupported():
    with pytest.raises(ValueError, match="float16"):
        Tensor([1.0]).astype(np.float16)


# ----------------------------------------------------------------------
# Property-based parity: fp32/mixed within tolerance of pure_fp64.
# ----------------------------------------------------------------------
CHAIN_OPS = [
    lambda t, o: t + o,
    lambda t, o: t * o,
    lambda t, o: t - o,
    lambda t, o: t / (o * o + 1.5),
    lambda t, o: t.relu() + o,
    lambda t, o: (t * 0.5).tanh() * o,
    lambda t, o: t.sigmoid() - o,
    lambda t, o: (t + o).softmax(axis=-1),
    lambda t, o: (t * o).sum(axis=-1, keepdims=True) + t,
    lambda t, o: t.log_softmax(axis=-1) * o,
]


def _chain_loss_and_grads(policy, ops, seed):
    rng = np.random.default_rng(seed)
    a_data = rng.standard_normal((3, 4))
    b_data = rng.standard_normal((3, 4))
    with use_precision(policy):
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        t = a
        for op_idx in ops:
            t = CHAIN_OPS[op_idx](t, b)
        loss = (t * t).sum()
        loss.backward()
        return (float(loss.item()),
                np.asarray(a.grad, dtype=np.float64),
                np.asarray(b.grad, dtype=np.float64))


@settings(max_examples=20, deadline=None)
@given(policy=st.sampled_from(["pure_fp32", "mixed"]),
       ops=st.lists(st.integers(min_value=0, max_value=len(CHAIN_OPS) - 1),
                    min_size=1, max_size=6),
       seed=st.integers(min_value=0, max_value=2**16))
def test_reduced_precision_within_tolerance_on_random_graphs(
        policy, ops, seed):
    ref = _chain_loss_and_grads("pure_fp64", ops, seed)
    got = _chain_loss_and_grads(policy, ops, seed)
    # fp32 keeps ~7 significant digits; chains of <=6 ops plus a quadratic
    # loss stay well inside 1e-4 relative.
    scale = max(1.0, abs(ref[0]))
    assert abs(got[0] - ref[0]) <= 1e-4 * scale
    for got_grad, ref_grad in zip(got[1:], ref[1:]):
        denom = max(1.0, float(np.max(np.abs(ref_grad))))
        assert float(np.max(np.abs(got_grad - ref_grad))) <= 1e-3 * denom


# ----------------------------------------------------------------------
# Real-model parity within the documented budgets.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["pure_fp32", "mixed"])
def test_model_trainstep_within_documented_budgets(policy):
    from repro.analysis.tensorperf import (PRECISION_GRAD_BUDGET,
                                           PRECISION_LOSS_BUDGET,
                                           measure_precision_parity)
    parity = measure_precision_parity()[policy]
    assert parity["loss_abs_diff"] <= PRECISION_LOSS_BUDGET[policy], parity
    assert parity["grad_max_abs_diff"] <= PRECISION_GRAD_BUDGET[policy], parity


# ----------------------------------------------------------------------
# Adam master weights.
# ----------------------------------------------------------------------
def test_adam_keeps_no_masters_under_pure_policies():
    for policy in ("pure_fp64", "pure_fp32"):
        with use_precision(policy):
            param = T.Parameter(np.ones(4))
            opt = T.Adam([param], lr=1e-4)
        assert opt._masters == [None]


def test_adam_master_weight_round_trip():
    """Updates below one fp32 ulp accumulate in the fp64 master and
    eventually surface in the fp32 working copy."""
    with use_precision("mixed"):
        param = T.Parameter(np.ones(8))
        assert param.data.dtype == np.float32
        opt = T.Adam([param], lr=1e-8)
        (master,) = opt._masters
        assert master is not None and master.dtype == np.float64
        np.testing.assert_array_equal(master, 1.0)

        fp32_ulp = np.spacing(np.float32(1.0))
        for _ in range(30):
            param.grad = np.full(8, 1e-3, dtype=np.float32)
            opt.step()
        # Each step moved the master by ~lr (Adam normalises the grad),
        # far below one fp32 ulp — yet the accumulated master drift has
        # crossed the ulp and the working copy reflects it.
        assert float(np.max(np.abs(master - 1.0))) < fp32_ulp * 4
        np.testing.assert_array_equal(param.data,
                                      master.astype(np.float32))
        assert np.all(param.data < np.float32(1.0))


def test_adam_master_free_fp32_rounds_tiny_updates_away():
    """The control: without masters the same recipe never moves fp32."""
    with use_precision("pure_fp32"):
        param = T.Parameter(np.ones(8))
        opt = T.Adam([param], lr=1e-8)
        for _ in range(30):
            param.grad = np.full(8, 1e-3, dtype=np.float32)
            opt.step()
        np.testing.assert_array_equal(param.data, np.float32(1.0))


# ----------------------------------------------------------------------
# KVCache dtype preservation across capacity doubling.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kvcache_preserves_dtype_across_doubling(dtype):
    rng = np.random.default_rng(0)
    cache = KVCache()
    appended = []
    # _MIN_CAPACITY is 16: 40 single-token appends force two doublings.
    for _ in range(40):
        step = rng.standard_normal((2, 1, 3)).astype(dtype)
        cache.append(step, step * 2.0)
        appended.append(step)
    assert cache.keys.dtype == np.dtype(dtype)
    assert cache.values.dtype == np.dtype(dtype)
    assert cache.length == 40
    expected = np.concatenate(appended, axis=1)
    np.testing.assert_array_equal(cache.keys, expected)
    np.testing.assert_array_equal(cache.values, expected * 2.0)


def test_model_kvcache_dtype_follows_policy():
    config = get_config("tiny_moe_8")
    rng = np.random.default_rng(0)
    enc = rng.integers(1, config.vocab_size, size=(2, 4))
    for policy, expected in (("pure_fp64", np.float64), ("mixed", np.float32)):
        with use_precision(policy):
            model = SwitchTransformer(config, seed=0).eval()
            generated, _ = model.greedy_decode(enc, bos_id=1, eos_id=0,
                                               max_new_tokens=3)
            with no_grad():
                logits = model(enc, enc).logits
            assert logits.dtype == np.dtype(expected)
        assert generated.shape == (2, 4)
