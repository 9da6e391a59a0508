"""Precision policies for the tensor substrate.

Every array in the tensor stack was historically hard-wired ``float64`` —
numerically bulletproof, but it pinned the real-model hot path to the
float64 BLAS floor of the host (fp32 GEMM runs ~2x faster per core and
doubles cache residency).  This module makes the dtype a *policy*:

=============  =========  ========  ======  ==========  ==============
policy         compute    params    grads   reductions  master weights
=============  =========  ========  ======  ==========  ==============
``pure_fp64``  float64    float64   float64 float64     (none)
``pure_fp32``  float32    float32   float32 float32     (none)
``mixed``      float32    float32   float32 float64     float64 (Adam)
=============  =========  ========  ======  ==========  ==============

* **compute** — the dtype activations are created and combined in (the
  default coercion dtype of :func:`repro.tensor.autograd._as_array`);
* **params** — the working-copy dtype of :class:`~repro.tensor.module.
  Parameter` payloads (what the forward pass multiplies by);
* **grads** — the accumulation dtype of ``Tensor.grad``;
* **reductions** — the internal dtype of the numerically sensitive fused
  reductions (softmax, log-softmax, LayerNorm statistics and the fused
  softmax–cross-entropy loss).  Under ``mixed`` these up-cast their fp32
  inputs to fp64, reduce, and cast the result back to the compute dtype
  (the scalar loss itself stays fp64);
* **master weights** — when set, :class:`~repro.tensor.optim.Adam` keeps
  an fp64 master copy of every lower-precision parameter and applies the
  update there, so tiny per-step updates are never rounded away by the
  fp32 working copy (the classic mixed-precision recipe).

``pure_fp64`` is the default and is **bit-identical** to the historical
engine: every cast in the stack is guarded by a dtype comparison, so under
the default policy no conversion (and no copy) ever happens.  All recorded
paper figures are therefore untouched by this layer.

Usage::

    from repro import tensor as T

    with T.use_precision("mixed"):       # context manager ...
        model = SwitchTransformer(config, seed=0)
        train(model)

    T.use_precision("pure_fp32")         # ... or global switch
    T.use_precision("pure_fp64")

The policy is consulted at *array-creation* points (tensor constructors,
parameter registration, gradient stashes, optimiser state), so the policy
active while a model is built and trained determines its precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

#: Dtypes a tensor may be explicitly created with.  Anything else (ints,
#: bools, half precision, complex) raises — silent coercion is reserved
#: for the *implicit* path where the policy supplies the dtype.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@dataclass(frozen=True)
class PrecisionPolicy:
    """One named assignment of dtypes to the tensor stack's roles."""

    name: str
    compute_dtype: np.dtype
    param_dtype: np.dtype
    grad_dtype: np.dtype
    reduction_dtype: np.dtype
    master_dtype: Optional[np.dtype] = None

    def __post_init__(self) -> None:
        for field in ("compute_dtype", "param_dtype", "grad_dtype",
                      "reduction_dtype"):
            object.__setattr__(self, field, np.dtype(getattr(self, field)))
        if self.master_dtype is not None:
            object.__setattr__(self, "master_dtype", np.dtype(self.master_dtype))

    @property
    def keeps_master_weights(self) -> bool:
        """Whether optimisers should hold a higher-precision master copy."""
        return (self.master_dtype is not None
                and self.master_dtype != self.param_dtype)


PURE_FP64 = PrecisionPolicy("pure_fp64", np.float64, np.float64, np.float64,
                            np.float64)
PURE_FP32 = PrecisionPolicy("pure_fp32", np.float32, np.float32, np.float32,
                            np.float32)
MIXED = PrecisionPolicy("mixed", np.float32, np.float32, np.float32,
                        np.float64, master_dtype=np.float64)

POLICIES: Dict[str, PrecisionPolicy] = {
    policy.name: policy for policy in (PURE_FP64, PURE_FP32, MIXED)
}

#: The active policy.  Module-level so the hot-path accessors below are a
#: single attribute load; mutated only through :class:`use_precision`.
_active: PrecisionPolicy = PURE_FP64


def current_precision() -> PrecisionPolicy:
    """Return the active :class:`PrecisionPolicy`."""
    return _active


def compute_dtype() -> np.dtype:
    """Dtype new tensors/activations are created in under the active policy."""
    return _active.compute_dtype


def param_dtype() -> np.dtype:
    """Dtype of parameter working copies under the active policy."""
    return _active.param_dtype


def grad_dtype() -> np.dtype:
    """Dtype gradients accumulate in under the active policy."""
    return _active.grad_dtype


def reduction_dtype() -> np.dtype:
    """Internal dtype of the fused numerically sensitive reductions."""
    return _active.reduction_dtype


def master_dtype() -> Optional[np.dtype]:
    """Master-weight dtype for optimisers, or None when masters are off."""
    return _active.master_dtype if _active.keeps_master_weights else None


def validate_dtype(dtype) -> np.dtype:
    """Normalise an explicit user dtype, rejecting unsupported ones.

    Raises ``ValueError`` naming the offending dtype — the tensor stack
    only computes in fp32/fp64, and silently coercing an explicit request
    (the historical behaviour for *implicit* inputs) hides bugs.
    """
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ValueError(f"unsupported dtype {dtype!r} for Tensor; "
                         f"expected one of float32/float64") from exc
    if resolved not in SUPPORTED_DTYPES:
        raise ValueError(f"unsupported dtype {resolved.name!r} for Tensor; "
                         f"expected one of float32/float64")
    return resolved


def resolve_dtype(dtype) -> np.dtype:
    """Explicit dtype (validated) or the policy compute dtype when None."""
    if dtype is None:
        return _active.compute_dtype
    return validate_dtype(dtype)


class use_precision:
    """Switch the active precision policy.

    Acts as a *global switch* the moment it is constructed and as a
    *context manager* that restores the previous policy on exit::

        T.use_precision("mixed")           # stays mixed until switched back

        with T.use_precision("mixed"):     # mixed inside the block only
            ...
    """

    def __init__(self, policy: Union[str, PrecisionPolicy]) -> None:
        global _active
        if isinstance(policy, str):
            if policy not in POLICIES:
                raise ValueError(
                    f"unknown precision policy {policy!r}; expected one of "
                    f"{sorted(POLICIES)}")
            policy = POLICIES[policy]
        elif not isinstance(policy, PrecisionPolicy):
            raise ValueError(
                f"unknown precision policy {policy!r}; expected one of "
                f"{sorted(POLICIES)} or a PrecisionPolicy")
        self._previous = _active
        _active = policy

    def __enter__(self) -> "use_precision":
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = self._previous


def current_precision_name() -> str:
    """Name of the active policy (``"pure_fp64"`` by default)."""
    return _active.name
