"""Shared primitive registry: one forward / one gradient per operation.

Every differentiable operation of the tensor substrate is described once
here, as a :class:`Primitive` bundling

* ``forward`` — the numpy implementation;
* ``vjp`` — the vector-Jacobian product, a function of
  ``(grad, out, inputs, needs, params)``.

The engine (:mod:`repro.tensor.autograd`) dispatches every op through this
table, so adding an op here makes it available with its gradient.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.tensor import precision as PR

_NEG_INF = -1e9


def _reduce_cast(x: np.ndarray):
    """Up-cast ``x`` to the policy's reduction dtype when it is wider.

    Returns ``(array, original_dtype_or_None)``: the numerically sensitive
    fused reductions below compute in the policy's reduction dtype (fp64
    under the ``mixed`` policy) and cast their results back to the input
    dtype.  Under the pure policies input and reduction dtype coincide, so
    this is a no-op — which is what keeps ``pure_fp64`` bit-identical to
    the historical engine.
    """
    rdt = PR.reduction_dtype()
    if x.dtype.itemsize < rdt.itemsize:
        return x.astype(rdt), x.dtype
    return x, None


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    When an operand was broadcast during the forward pass, the gradient
    flowing back has the broadcast (larger) shape.  This helper sums the
    gradient over the broadcast axes so it matches the original operand.
    """
    if grad.shape == shape:
        return grad
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Primitive:
    """One operation: forward and gradient under a single name."""

    __slots__ = ("name", "forward", "vjp")

    def __init__(self, name: str,
                 forward: Callable[..., np.ndarray],
                 vjp: Optional[Callable[..., Sequence[Optional[np.ndarray]]]]) -> None:
        self.name = name
        self.forward = forward
        self.vjp = vjp

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Primitive({self.name!r})"


REGISTRY: Dict[str, Primitive] = {}


def register(name: str, forward, vjp) -> Primitive:
    if name in REGISTRY:
        raise ValueError(f"duplicate primitive {name!r}")
    prim = Primitive(name, forward, vjp)
    REGISTRY[name] = prim
    return prim


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------
def _add_vjp(grad, out, inputs, needs, params):
    a, b = inputs
    return (unbroadcast(grad, a.shape) if needs[0] else None,
            unbroadcast(grad, b.shape) if needs[1] else None)


def _sub_vjp(grad, out, inputs, needs, params):
    a, b = inputs
    return (unbroadcast(grad, a.shape) if needs[0] else None,
            unbroadcast(-grad, b.shape) if needs[1] else None)


def _mul_vjp(grad, out, inputs, needs, params):
    a, b = inputs
    return (unbroadcast(grad * b, a.shape) if needs[0] else None,
            unbroadcast(grad * a, b.shape) if needs[1] else None)


def _div_vjp(grad, out, inputs, needs, params):
    a, b = inputs
    return (unbroadcast(grad / b, a.shape) if needs[0] else None,
            unbroadcast(-grad * out / b, b.shape) if needs[1] else None)


ADD = register("add", np.add, _add_vjp)
SUB = register("sub", np.subtract, _sub_vjp)
MUL = register("mul", np.multiply, _mul_vjp)
DIV = register("div", np.divide, _div_vjp)
NEG = register("neg", np.negative,
               lambda grad, out, inputs, needs, params: (-grad,))


def _pow_forward(a, exponent=2.0):
    return np.power(a, exponent)


def _pow_vjp(grad, out, inputs, needs, params):
    (a,) = inputs
    exponent = params["exponent"]
    return (grad * exponent * a ** (exponent - 1),)


POW = register("pow", _pow_forward, _pow_vjp)


# ----------------------------------------------------------------------
# Elementwise non-linearities
# ----------------------------------------------------------------------
EXP = register("exp", np.exp,
               lambda grad, out, inputs, needs, params: (grad * out,))
LOG = register("log", np.log,
               lambda grad, out, inputs, needs, params: (grad / inputs[0],))
TANH = register("tanh", np.tanh,
                lambda grad, out, inputs, needs, params: (grad * (1.0 - out * out),))
SIGMOID = register(
    "sigmoid",
    lambda a: 1.0 / (1.0 + np.exp(-a)),
    lambda grad, out, inputs, needs, params: (grad * out * (1.0 - out),))


def _relu_forward(a):
    return np.maximum(a, 0.0)


def _relu_vjp(grad, out, inputs, needs, params):
    return (grad * (out > 0),)


RELU = register("relu", _relu_forward, _relu_vjp)

# A python float on purpose: NEP-50 promotion makes a ``np.float64`` scalar
# up-cast float32 operands, while a python float stays "weak" and preserves
# the array dtype under every precision policy.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu_forward(a):
    inner = _GELU_C * (a + 0.044715 * a ** 3)
    return 0.5 * a * (1.0 + np.tanh(inner, out=inner))


def _gelu_vjp(grad, out, inputs, needs, params):
    x = inputs[0]
    inner = _GELU_C * (x + 0.044715 * x ** 3)
    tanh_inner = np.tanh(inner)
    sech2 = 1.0 - tanh_inner ** 2
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
    d = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
    return (grad * d,)


GELU = register("gelu", _gelu_forward, _gelu_vjp)


# ----------------------------------------------------------------------
# Masking / selection (elementwise with constant operands)
# ----------------------------------------------------------------------
def _masked_fill_forward(a, mask=None, value=0.0):
    return np.where(mask, value, a)


def _masked_fill_vjp(grad, out, inputs, needs, params):
    mask = params["mask"]
    return (unbroadcast(np.where(mask, 0.0, grad), inputs[0].shape),)


MASKED_FILL = register("masked_fill", _masked_fill_forward, _masked_fill_vjp)


def _where_forward(a, b, cond=None):
    return np.where(cond, a, b)


def _where_vjp(grad, out, inputs, needs, params):
    cond = params["cond"]
    a, b = inputs
    return (unbroadcast(np.where(cond, grad, 0.0), a.shape) if needs[0] else None,
            unbroadcast(np.where(cond, 0.0, grad), b.shape) if needs[1] else None)


WHERE = register("where", _where_forward, _where_vjp)


# ----------------------------------------------------------------------
# Matrix multiply
# ----------------------------------------------------------------------
def _matmul_vjp(grad, out, inputs, needs, params):
    a, b = inputs
    grad_a = grad_b = None
    if needs[0]:
        grad_a = unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
    if needs[1]:
        grad_b = unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
    return (grad_a, grad_b)


MATMUL = register("matmul", lambda a, b: a @ b, _matmul_vjp)


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
def _reshape_forward(a, shape=None):
    return a.reshape(shape)


def _reshape_vjp(grad, out, inputs, needs, params):
    return (grad.reshape(inputs[0].shape),)


RESHAPE = register("reshape", _reshape_forward, _reshape_vjp)


def _transpose_forward(a, axes=None, inverse=None):
    return a.transpose(axes)


def _transpose_vjp(grad, out, inputs, needs, params):
    return (grad.transpose(params["inverse"]),)


TRANSPOSE = register("transpose", _transpose_forward, _transpose_vjp)


def _getitem_forward(a, index=None):
    return a[index]


def _getitem_vjp(grad, out, inputs, needs, params):
    full = np.zeros_like(inputs[0])
    np.add.at(full, params["index"], grad)
    return (full,)


GETITEM = register("getitem", _getitem_forward, _getitem_vjp)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _sum_forward(a, axis=None, keepdims=False):
    return a.sum(axis=axis, keepdims=keepdims)


def _sum_vjp(grad, out, inputs, needs, params):
    a = inputs[0]
    axis, keepdims = params["axis"], params["keepdims"]
    g = grad
    if axis is not None and not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        for ax in sorted(ax % a.ndim for ax in axes):
            g = np.expand_dims(g, ax)
    return (np.broadcast_to(g, a.shape),)


SUM = register("sum", _sum_forward, _sum_vjp)


def _max_forward(a, axis=None, keepdims=False):
    return a.max(axis=axis, keepdims=keepdims)


def _max_vjp(grad, out, inputs, needs, params):
    a = inputs[0]
    axis, keepdims = params["axis"], params["keepdims"]
    g = grad
    expanded = out
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
        expanded = np.expand_dims(out, axis)
    mask = (a == expanded).astype(a.dtype)
    normaliser = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
    return (mask * g / np.maximum(normaliser, 1),)


MAX = register("max", _max_forward, _max_vjp)


# ----------------------------------------------------------------------
# Combinators
# ----------------------------------------------------------------------
def _concatenate_forward(*arrays, axis=-1):
    return np.concatenate(arrays, axis=axis)


def _concatenate_vjp(grad, out, inputs, needs, params):
    axis = params["axis"]
    sizes = [a.shape[axis] for a in inputs]
    offsets = np.cumsum([0] + sizes)
    grads = []
    index = [slice(None)] * grad.ndim
    for i, a in enumerate(inputs):
        if not needs[i]:
            grads.append(None)
            continue
        index[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
        grads.append(grad[tuple(index)])
    return grads


CONCATENATE = register("concatenate", _concatenate_forward, _concatenate_vjp)


def _stack_forward(*arrays, axis=0):
    return np.stack(arrays, axis=axis)


def _stack_vjp(grad, out, inputs, needs, params):
    split = np.moveaxis(grad, params["axis"], 0)
    return [split[i] if needs[i] else None for i in range(len(inputs))]


STACK = register("stack", _stack_forward, _stack_vjp)


def _embedding_forward(weight, indices=None):
    return weight[indices]


def _embedding_vjp(grad, out, inputs, needs, params):
    weight = inputs[0]
    idx = params["indices"]
    full = np.zeros_like(weight)
    np.add.at(full, idx.reshape(-1), grad.reshape(-1, weight.shape[-1]))
    return (full,)


EMBEDDING = register("embedding", _embedding_forward, _embedding_vjp)


# ----------------------------------------------------------------------
# Fused neural-network kernels
# ----------------------------------------------------------------------
# These collapse the composite op chains that dominate the model hot path
# (normalisation, attention softmax, the loss) into single primitives: one
# graph node, one forward call, one VJP — instead of ~10 of each.
#
# Saved activations: the layer_norm and sdpa forwards deposit intermediates
# into a mutable ``params["_saved"]`` dict when the caller provides one.  The
# autograd layer provides it whenever gradients are enabled, which is the
# only time a node (and so a VJP call) is recorded; the VJPs read it.

def _softmax(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def _softmax_forward(x, axis=-1):
    wide, narrow = _reduce_cast(x)
    out = _softmax(wide, axis)
    return out if narrow is None else out.astype(narrow)


def _softmax_vjp(grad, out, inputs, needs, params):
    axis = params["axis"]
    grad, narrow = _reduce_cast(grad)
    if narrow is not None:
        out = out.astype(grad.dtype)
    inner = (grad * out).sum(axis=axis, keepdims=True)
    gx = out * (grad - inner)
    return (gx if narrow is None else gx.astype(narrow),)


SOFTMAX = register("softmax", _softmax_forward, _softmax_vjp)


def _log_softmax_forward(x, axis=-1):
    x, narrow = _reduce_cast(x)
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    shifted -= lse
    return shifted if narrow is None else shifted.astype(narrow)


def _log_softmax_vjp(grad, out, inputs, needs, params):
    axis = params["axis"]
    grad, narrow = _reduce_cast(grad)
    if narrow is not None:
        out = out.astype(grad.dtype)
    gx = grad - np.exp(out) * grad.sum(axis=axis, keepdims=True)
    return (gx if narrow is None else gx.astype(narrow),)


LOG_SOFTMAX = register("log_softmax", _log_softmax_forward, _log_softmax_vjp)


def _reduce_acc(dtype: np.dtype) -> np.dtype:
    """Accumulator dtype for ``dtype``-valued reductions under the policy.

    Unlike :func:`_reduce_cast` this never copies the operand: it is meant
    for numpy reductions that take a ``dtype=`` accumulator argument, so
    only the O(n)-term sum runs in the wide dtype while the surrounding
    elementwise arithmetic (and its memory traffic) stays narrow.
    """
    rdt = PR.reduction_dtype()
    return rdt if np.dtype(dtype).itemsize < rdt.itemsize else np.dtype(dtype)


def _layer_norm_forward(x, scale, shift, eps=1e-6, _saved=None):
    # Mean/variance sums accumulate in the policy's reduction dtype via the
    # reductions' ``dtype=`` accumulator; the normalisation arithmetic stays
    # in the input dtype.  Under ``mixed`` that keeps the fp64 digits where
    # n-term cancellation actually loses them without materialising fp64
    # copies of the (dominant) activations; under the pure policies every
    # cast below is a no-op and the kernel is bit-identical to the
    # historical engine.
    acc = _reduce_acc(x.dtype)
    mean = x.mean(axis=-1, keepdims=True, dtype=acc)
    centered = x - mean.astype(x.dtype, copy=False)
    var = np.mean(centered * centered, axis=-1, keepdims=True, dtype=acc)
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype, copy=False)
    centered *= inv_std
    if _saved is not None:
        _saved["xhat"] = centered
        _saved["inv_std"] = inv_std
    return centered * scale + shift


def _layer_norm_vjp(grad, out, inputs, needs, params):
    _, scale, shift = inputs
    acc = _reduce_acc(grad.dtype)
    saved = params["_saved"]
    xhat, inv_std = saved["xhat"], saved["inv_std"]
    grad_x = grad_scale = grad_shift = None
    if needs[0]:
        g = grad * scale
        gm = g.mean(axis=-1, keepdims=True, dtype=acc).astype(g.dtype,
                                                             copy=False)
        gxm = np.mean(g * xhat, axis=-1, keepdims=True,
                      dtype=acc).astype(g.dtype, copy=False)
        grad_x = (g - gm - xhat * gxm) * inv_std
    reduce_axes = tuple(range(grad.ndim - 1))
    if needs[1]:
        grad_scale = (grad * xhat).sum(axis=reduce_axes,
                                       dtype=acc).astype(scale.dtype,
                                                         copy=False)
    if needs[2]:
        grad_shift = grad.sum(axis=reduce_axes, dtype=acc).astype(shift.dtype,
                                                                  copy=False)
    return (grad_x, grad_scale, grad_shift)


LAYER_NORM = register("layer_norm", _layer_norm_forward, _layer_norm_vjp)


def _sdpa_forward(q, k, v, mask=None, scale=1.0, _saved=None):
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    if mask is not None:
        np.copyto(scores, _NEG_INF, where=mask)
    weights = _softmax(scores, -1)
    if _saved is not None:
        _saved["weights"] = weights
    return weights @ v


def _sdpa_vjp(grad, out, inputs, needs, params):
    q, k, v = inputs
    scale = params["scale"]
    weights = params["_saved"]["weights"]
    grad_q = grad_k = grad_v = None
    if needs[2]:
        grad_v = unbroadcast(np.swapaxes(weights, -1, -2) @ grad, v.shape)
    grad_weights = grad @ np.swapaxes(v, -1, -2)
    inner = (grad_weights * weights).sum(axis=-1, keepdims=True)
    grad_scores = weights * (grad_weights - inner)
    grad_scores *= scale
    if needs[0]:
        grad_q = unbroadcast(grad_scores @ k, q.shape)
    if needs[1]:
        grad_k = unbroadcast(np.swapaxes(grad_scores, -1, -2) @ q, k.shape)
    return (grad_q, grad_k, grad_v)


SDPA = register("sdpa", _sdpa_forward, _sdpa_vjp)


def _softmax_xent_forward(logits, targets=None, weights=None, denom=1.0):
    # The scalar loss stays in the reduction dtype (fp64 under ``mixed``):
    # it is the root of the backward pass and the quantity experiments log.
    logits, _ = _reduce_cast(logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(targets.shape[0]), targets]
    return np.asarray(((lse - picked) * weights).sum() / denom)


def _softmax_xent_vjp(grad, out, inputs, needs, params):
    (logits,) = inputs
    targets, weights, denom = params["targets"], params["weights"], params["denom"]
    wide, narrow = _reduce_cast(logits)
    probs = _softmax(wide, -1)
    probs[np.arange(targets.shape[0]), targets] -= 1.0
    probs *= (np.asarray(weights, dtype=probs.dtype) / denom)[:, None]
    probs *= grad
    return (probs if narrow is None else probs.astype(narrow),)


SOFTMAX_XENT = register("softmax_xent", _softmax_xent_forward, _softmax_xent_vjp)


def _astype_forward(a, dtype=None):
    return a.astype(dtype)


def _astype_vjp(grad, out, inputs, needs, params):
    return (grad.astype(inputs[0].dtype),)


ASTYPE = register("astype", _astype_forward, _astype_vjp)
