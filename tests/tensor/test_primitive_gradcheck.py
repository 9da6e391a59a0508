"""Numerical gradient checks for every primitive in the registry.

Each case builds a small graph from fresh inputs (fp64 except for the
fp32 → fp64 ``astype`` case), reduces it to
``sum(out * out)`` and compares the engine's analytic gradient (the
registry VJPs, run by :meth:`Tensor.backward`) with a central-difference
estimate of the same scalar, to :data:`ATOL`.  The table covers every
registered primitive (:func:`test_cases_cover_every_registered_primitive`
keeps it that way), including the fused ``layer_norm``, ``sdpa`` and
``softmax_xent`` kernels; the property-based suite drives random chains of
primitives with random shapes and broadcasting.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, no_grad
from repro.tensor.autograd import (concatenate, embedding_lookup, layer_norm,
                                   scaled_dot_product_attention,
                                   softmax_cross_entropy, stack, where)
from repro.tensor.primitives import REGISTRY

from .test_autograd import numeric_grad

ATOL = 1e-5


def gradcheck(build, arrays, eps=1e-6):
    """Check ``build``'s analytic input gradients against central differences.

    ``build`` takes one Tensor per array in ``arrays`` and returns a Tensor;
    the checked scalar is ``sum(build(...) ** 2)``.  Inputs keep their
    array's dtype.
    """
    inputs = [Tensor(a, requires_grad=True, dtype=a.dtype) for a in arrays]
    out = build(*inputs)
    (out * out).sum().backward()
    for i, (tensor, array) in enumerate(zip(inputs, arrays)):
        def scalar(x, i=i):
            with no_grad():
                value = build(*[Tensor(x if j == i else a, dtype=a.dtype)
                                for j, a in enumerate(arrays)]).data
            return float((value * value).sum())

        expected = numeric_grad(scalar, array.copy(), eps=eps)
        got = np.zeros_like(array) if tensor.grad is None else tensor.grad
        assert np.allclose(got, expected, atol=ATOL), (
            f"input {i}: max err {np.max(np.abs(got - expected)):.3e}")


def normal(*shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) + 0.1 for shape in shapes]


# ----------------------------------------------------------------------
# Per-primitive coverage: every op the registry exposes.
# ----------------------------------------------------------------------
BINARY_CASES = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("div", lambda a, b: a / (b * b + 1.0)),
    ("where", lambda a, b: where(np.asarray(a.data) > 0, a, b)),
]

UNARY_CASES = [
    ("neg", lambda a: -a),
    ("pow", lambda a: (a * a + 1.0) ** 1.5),
    ("exp", lambda a: a.exp()),
    ("log", lambda a: (a * a + 1.0).log()),
    ("sqrt", lambda a: (a * a + 1.0).sqrt()),
    ("tanh", lambda a: a.tanh()),
    ("sigmoid", lambda a: a.sigmoid()),
    ("relu", lambda a: a.relu()),
    ("gelu", lambda a: a.gelu()),
    ("masked_fill", lambda a: a.masked_fill(np.asarray(a.data) < 0, -2.0)),
    ("reshape", lambda a: a.reshape(-1)),
    ("transpose", lambda a: a.transpose(1, 0)),
    ("getitem", lambda a: a[1:, :2]),
    ("sum", lambda a: a.sum(axis=1)),
    ("sum_keepdims", lambda a: a.sum(axis=0, keepdims=True)),
    ("mean", lambda a: a.mean(axis=-1)),
    ("max", lambda a: a.max(axis=1)),
    ("softmax", lambda a: a.softmax(axis=-1)),
    ("log_softmax", lambda a: a.log_softmax(axis=-1)),
]

_IDX = np.array([[0, 2, 1], [2, 2, 0]])
_CAUSAL = np.triu(np.ones((5, 5), dtype=bool), k=1)[None, None]
_TARGETS = np.array([0, 3, 1, 2])
_ROW_WEIGHTS = np.array([1.0, 1.0, 0.0, 1.0])

#: (name, build, input shapes) for the multi-input and fused primitives.
SHAPED_CASES = [
    ("matmul", lambda a, b: a @ b, ((3, 4), (4, 5))),
    ("matmul_batched", lambda a, b: a @ b, ((2, 3, 4), (4, 5))),
    ("concatenate", lambda a, b: concatenate([a, b], axis=1), ((3, 2), (3, 4))),
    ("stack", lambda a, b: stack([a, b], axis=0), ((3, 2), (3, 2))),
    ("embedding", lambda w: embedding_lookup(w, _IDX), ((4, 5),)),
    ("layer_norm", lambda x, s, b: layer_norm(x, s, b), ((4, 6), (6,), (6,))),
    ("sdpa", lambda q, k, v: scaled_dot_product_attention(
        q, k, v, mask=_CAUSAL, scale=0.5), ((2, 2, 5, 3),) * 3),
    ("softmax_xent", lambda logits: softmax_cross_entropy(
        logits, _TARGETS, _ROW_WEIGHTS, 3.0), ((4, 5),)),
]


@pytest.mark.parametrize("name,fn", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_binary_primitive_gradcheck(name, fn):
    gradcheck(fn, normal((3, 4), (3, 4)))


@pytest.mark.parametrize("name,fn", BINARY_CASES[:4], ids=[c[0] for c in BINARY_CASES[:4]])
def test_binary_primitive_broadcast_gradcheck(name, fn):
    gradcheck(fn, normal((3, 4), (4,)))
    gradcheck(fn, normal((2, 1, 4), (3, 1)))


@pytest.mark.parametrize("name,fn", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_primitive_gradcheck(name, fn):
    gradcheck(fn, normal((3, 4)))


@pytest.mark.parametrize("name,fn,shapes", SHAPED_CASES,
                         ids=[c[0] for c in SHAPED_CASES])
def test_shaped_primitive_gradcheck(name, fn, shapes):
    gradcheck(fn, normal(*shapes))


def _astype_up(a):
    return a.astype(np.float64)


def _dyadic_fp32(shape):
    """fp32 values on a 2**-10 grid."""
    values = np.random.default_rng(0).integers(-2048, 2048, size=shape) / 1024.0
    return values.astype(np.float32)


def test_astype_gradcheck():
    # fp32 rounds away a 1e-6 step, so the difference step is one grid
    # spacing: x ± eps stays exact in fp32, the loss is summed in fp64 and
    # the central difference of the quadratic loss is exact.
    gradcheck(_astype_up, [_dyadic_fp32((3, 4))], eps=2.0 ** -10)


def _primitives_in(out):
    names, stack_, seen = set(), [out], set()
    while stack_:
        node = stack_.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._prim is not None:
            names.add(node._prim.name)
        stack_.extend(node._parents)
    return names


def test_cases_cover_every_registered_primitive():
    covered = set()
    for _, fn in BINARY_CASES:
        covered |= _primitives_in(fn(*[Tensor(a, requires_grad=True)
                                       for a in normal((3, 4), (3, 4))]))
    for _, fn in UNARY_CASES:
        covered |= _primitives_in(fn(Tensor(normal((3, 4))[0], requires_grad=True)))
    for _, fn, shapes in SHAPED_CASES:
        covered |= _primitives_in(fn(*[Tensor(a, requires_grad=True)
                                       for a in normal(*shapes)]))
    covered |= _primitives_in(_astype_up(
        Tensor(_dyadic_fp32((3, 4)), requires_grad=True, dtype=np.float32)))
    assert covered == set(REGISTRY)


# ----------------------------------------------------------------------
# Property-based: random graphs of chained primitives.
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
    lambda t, o: t.masked_fill(np.zeros(t.shape, dtype=bool), 0.0) + o,
    lambda t, o: (t * o).sum(axis=-1, keepdims=True) + t,
]


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=5),
    broadcast=st.booleans(),
    ops=st.lists(st.integers(min_value=0, max_value=len(CHAIN_OPS) - 1),
                 min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_graph_gradcheck(rows, cols, broadcast, ops, seed):
    shape_a = (rows, cols)
    shape_b = (cols,) if broadcast else (rows, cols)

    def build(a, b):
        t = a
        for op_idx in ops:
            t = CHAIN_OPS[op_idx](t, b)
        return t

    gradcheck(build, normal(shape_a, shape_b, seed=seed))
