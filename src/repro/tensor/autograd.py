"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the numpy NN substrate used throughout the
reproduction.  It provides a :class:`Tensor` wrapper around ``numpy.ndarray``
that records the operations applied to it and can back-propagate gradients
through them with :meth:`Tensor.backward`.

Every operation dispatches through the shared primitive registry
(:mod:`repro.tensor.primitives`): a node stores which primitive produced it
plus its parents and parameters, and the backward engine calls the
primitive's VJP, so every gradient comes from exactly one implementation.

Broadcasting is handled by summing gradients over broadcast dimensions
(:func:`unbroadcast`).  Only the operations required by the
Switch-Transformer / Pre-gated MoE models are implemented, but they are
implemented carefully and are covered by unit and property-based tests
(``tests/tensor``).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor import precision as PR
from repro.tensor import primitives as P
from repro.tensor.primitives import unbroadcast  # noqa: F401  (re-export)

ArrayLike = Union[np.ndarray, float, int, "Tensor"]

_grad_enabled = True

_EMPTY_PARAMS: dict = {}


class no_grad:
    """Context manager that disables gradient tracking.

    Used during inference and evaluation to avoid building the autograd
    graph.  Mirrors the semantics of ``torch.no_grad``.
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _grad_enabled


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` to an ndarray of the active policy's compute dtype.

    An explicit ``dtype`` (already validated by the caller) overrides the
    policy.  Existing arrays of the target dtype pass through without a
    copy, which is what keeps ``pure_fp64`` bit-identical to the
    historical always-float64 behaviour.
    """
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=PR.compute_dtype() if dtype is None else dtype)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like payload.  Converted to the active precision policy's
        compute dtype (``float64`` under the default ``pure_fp64``
        policy) unless ``dtype`` is given explicitly.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream tensor.
    dtype:
        Optional explicit dtype.  Must be float32 or float64; anything
        else raises ``ValueError`` naming the offending dtype instead of
        silently coercing.
    """

    __slots__ = ("_data", "grad", "requires_grad", "_prim", "_parents",
                 "_params", "_backward", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
        dtype=None,
    ) -> None:
        self._data = _as_array(data, None if dtype is None
                               else PR.validate_dtype(dtype))
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._parents: Tuple[Tensor, ...] = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self._prim = None
        self._params = None
        self.name = name

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value) -> None:
        self._data = value if isinstance(value, np.ndarray) else _as_array(value)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        size = 1
        for dim in self.shape:
            size *= dim
        return size

    @property
    def dtype(self):
        return self._data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Cast to ``dtype`` (float32/float64) as a differentiable op.

        The gradient of a cast is a cast back to the input dtype.  Casting
        to the tensor's own dtype returns ``self`` unchanged.  Unsupported
        dtypes raise ``ValueError`` naming the offending dtype.
        """
        dtype = PR.validate_dtype(dtype)
        if self.dtype == dtype:
            return self
        return _dispatch(P.ASTYPE, (self,), {"dtype": dtype})

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Build a node with a custom backward closure.

        Escape hatch for composite ops with hand-written gradients (e.g. the
        grouped expert dispatch); regular ops go through the registry.
        """
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate gradients from this tensor to all ancestors.

        The engine visits nodes in reverse topological order.  Registry
        nodes invoke their primitive's VJP on the node's (by then fully
        accumulated) gradient; custom nodes invoke their closure.  Either
        way gradients accumulate into parents via :meth:`_stash`.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1.0`` which is only valid for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        data = self.data
        if grad is None:
            if data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(data)
        grad = _as_array(grad)

        # Iterative topological sort to avoid recursion limits on deep models.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._stash(grad)
        for node in reversed(topo):
            node_grad = node.grad
            if node_grad is None:
                continue
            if node._backward is not None:
                node._backward(node_grad)
            elif node._prim is not None:
                parents = node._parents
                inputs = tuple(p.data for p in parents)
                needs = tuple(p.requires_grad for p in parents)
                grads = node._prim.vjp(node_grad, node.data, inputs, needs,
                                       node._params or _EMPTY_PARAMS)
                for parent, parent_grad in zip(parents, grads):
                    if parent_grad is not None and parent.requires_grad:
                        parent._stash(parent_grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return _dispatch(P.ADD, (self, other if isinstance(other, Tensor) else Tensor(other)), None)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return _dispatch(P.SUB, (self, other if isinstance(other, Tensor) else Tensor(other)), None)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return _dispatch(P.MUL, (self, other if isinstance(other, Tensor) else Tensor(other)), None)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return _dispatch(P.DIV, (self, other if isinstance(other, Tensor) else Tensor(other)), None)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return _dispatch(P.NEG, (self,), None)

    def __pow__(self, exponent: float) -> "Tensor":
        return _dispatch(P.POW, (self,), {"exponent": exponent})

    # ------------------------------------------------------------------
    # Matrix multiply
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        return _dispatch(P.MATMUL, (self, other if isinstance(other, Tensor) else Tensor(other)), None)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _dispatch(P.RESHAPE, (self,), {"shape": shape})

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(int(i) for i in np.argsort(axes))
        return _dispatch(P.TRANSPOSE, (self,), {"axes": axes, "inverse": inverse})

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        return _dispatch(P.GETITEM, (self,), {"index": index})

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        return _dispatch(P.SUM, (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return _dispatch(P.MAX, (self,), {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return _dispatch(P.EXP, (self,), None)

    def log(self) -> "Tensor":
        return _dispatch(P.LOG, (self,), None)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        return _dispatch(P.TANH, (self,), None)

    def relu(self) -> "Tensor":
        return _dispatch(P.RELU, (self,), None)

    def sigmoid(self) -> "Tensor":
        return _dispatch(P.SIGMOID, (self,), None)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        return _dispatch(P.GELU, (self,), None)

    # ------------------------------------------------------------------
    # Masking / selection
    # ------------------------------------------------------------------
    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor with positions where ``mask`` is true set to ``value``."""
        mask_arr = np.asarray(mask, dtype=bool)
        return _dispatch(P.MASKED_FILL, (self,), {"mask": mask_arr, "value": value})

    # ------------------------------------------------------------------
    # Fused NN kernels (single graph node each)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        return _dispatch(P.SOFTMAX, (self,), {"axis": axis})

    def log_softmax(self, axis: int = -1) -> "Tensor":
        return _dispatch(P.LOG_SOFTMAX, (self,), {"axis": axis})

    # ------------------------------------------------------------------
    # Internal plumbing for gradient routing
    # ------------------------------------------------------------------
    # The engine (or a custom op's closure) accumulates gradients into a
    # node via ``_stash``.  The first stash copies — VJPs may return views
    # or the upstream gradient itself — and later stashes add in place.
    def _stash(self, grad: np.ndarray) -> None:
        current = self.grad
        if current is None:
            self.grad = np.array(grad, dtype=PR.grad_dtype(), copy=True)
        elif current.shape == grad.shape:
            np.add(current, grad, out=current)
        else:
            self.grad = current + grad


def _dispatch(prim: P.Primitive, parents: Tuple[Tensor, ...],
              params: Optional[dict]) -> Tensor:
    """Execute ``prim`` on ``parents`` and wrap the result as a graph node."""
    out = Tensor.__new__(Tensor)
    if params is None:
        out._data = prim.forward(*[p.data for p in parents])
    else:
        out._data = prim.forward(*[p.data for p in parents], **params)
    out.grad = None
    out._backward = None
    out.name = ""
    if _grad_enabled:
        for parent in parents:
            if parent.requires_grad:
                out.requires_grad = True
                out._prim = prim
                out._parents = parents
                out._params = params
                return out
    out.requires_grad = False
    out._prim = None
    out._parents = ()
    out._params = None
    return out


# ----------------------------------------------------------------------
# Free-function constructors and combinators
# ----------------------------------------------------------------------
def tensor(data: ArrayLike, requires_grad: bool = False, dtype=None) -> Tensor:
    """Create a :class:`Tensor` from array-like data."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(shape: Sequence[int], requires_grad: bool = False, dtype=None) -> Tensor:
    dtype = PR.resolve_dtype(dtype)
    return Tensor(np.zeros(shape, dtype=dtype),
                  requires_grad=requires_grad, dtype=dtype)


def ones(shape: Sequence[int], requires_grad: bool = False, dtype=None) -> Tensor:
    dtype = PR.resolve_dtype(dtype)
    return Tensor(np.ones(shape, dtype=dtype),
                  requires_grad=requires_grad, dtype=dtype)


def randn(shape: Sequence[int], scale: float = 1.0, rng: Optional[np.random.Generator] = None,
          requires_grad: bool = False, dtype=None) -> Tensor:
    # Always draw in float64 then cast, so every precision sees the *same*
    # weights (down-cast), not a different random stream per dtype.
    rng = rng or np.random.default_rng()
    values = rng.standard_normal(shape) * scale
    dtype = PR.resolve_dtype(dtype)
    if values.dtype != dtype:
        values = values.astype(dtype)
    return Tensor(values, requires_grad=requires_grad, dtype=dtype)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    return _dispatch(P.CONCATENATE, tuple(tensors), {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    return _dispatch(P.STACK, tuple(tensors), {"axis": axis})


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select ``a`` where ``condition`` else ``b``."""
    cond = np.asarray(condition, dtype=bool)
    a_t = a if isinstance(a, Tensor) else Tensor(a)
    b_t = b if isinstance(b, Tensor) else Tensor(b)
    return _dispatch(P.WHERE, (a_t, b_t), {"cond": cond})


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` at ``indices`` (integer array).

    Gradient scatters back into the embedding matrix with ``np.add.at`` so
    repeated indices accumulate correctly.
    """
    idx = np.asarray(indices, dtype=np.int64)
    return _dispatch(P.EMBEDDING, (weight,), {"indices": idx})


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-6) -> Tensor:
    """Fused layer normalisation over the last axis (one graph node)."""
    params = {"eps": eps}
    if _grad_enabled:
        # Let the forward cache x̂/inv_std for the VJP (recomputed otherwise).
        params["_saved"] = {}
    return _dispatch(P.LAYER_NORM, (x, scale, shift), params)


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 mask: Optional[np.ndarray] = None,
                                 scale: float = 1.0) -> Tensor:
    """Fused attention core ``softmax(q @ k^T * scale) @ v`` (one node).

    ``mask`` is a boolean array, broadcastable against the score matrix,
    that marks positions to suppress.
    """
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    params = {"mask": mask, "scale": scale}
    if _grad_enabled:
        # Let the forward cache the softmax weights for the VJP.
        params["_saved"] = {}
    return _dispatch(P.SDPA, (q, k, v), params)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray,
                          weights: np.ndarray, denom: float) -> Tensor:
    """Fused ``sum(weights * xent(logits, targets)) / denom`` (one node).

    ``logits`` is ``(N, num_classes)``, ``targets`` ``(N,)`` int class ids,
    ``weights`` ``(N,)`` per-row float weights (use 0.0 to ignore a row).
    """
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=PR.compute_dtype())
    return _dispatch(P.SOFTMAX_XENT, (logits,),
                     {"targets": targets, "weights": weights, "denom": float(denom)})
