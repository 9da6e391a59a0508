"""Composite differentiable operations built on :mod:`repro.tensor.autograd`.

These are the neural-network level functions (softmax, cross-entropy,
dropout, one-hot, top-k helpers) shared by the dense transformer blocks and
the MoE routing code.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import precision as PR
from .autograd import Tensor, softmax_cross_entropy


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (one fused graph node)."""
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis`` (one fused graph node)."""
    return x.log_softmax(axis=axis)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: Optional[int] = None) -> Tensor:
    """Token-level cross-entropy loss.

    Computed as a single fused softmax–cross-entropy node
    (:data:`repro.tensor.primitives.SOFTMAX_XENT`): the forward pass never
    builds the full log-softmax tensor graph and the backward pass is the
    closed-form ``softmax - one_hot`` instead of a scatter into the vocab
    axis.

    Parameters
    ----------
    logits:
        Tensor of shape ``(..., vocab)``.
    targets:
        Integer array of shape ``(...)`` with target token ids.
    ignore_index:
        Optional target value whose positions contribute zero loss
        (used for padding).
    """
    targets = np.asarray(targets, dtype=np.int64)
    vocab = logits.shape[-1]
    flat_logits = logits.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)

    if ignore_index is not None:
        mask = flat_targets != ignore_index
    else:
        mask = np.ones_like(flat_targets, dtype=bool)
    # Replace ignored targets with 0 so the gather is valid; they are masked out.
    safe_targets = np.where(mask, flat_targets, 0)
    weights = mask.astype(PR.compute_dtype())
    denom = max(float(weights.sum()), 1.0)
    return softmax_cross_entropy(flat_logits, safe_targets, weights, denom)


def one_hot(indices: np.ndarray, depth: int, dtype=None) -> np.ndarray:
    """Return a float one-hot encoding of integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (depth,),
                   dtype=PR.compute_dtype() if dtype is None
                   else PR.validate_dtype(dtype))
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def dropout(x: Tensor, rate: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout.  Identity when not training or ``rate == 0``."""
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    rng = rng or np.random.default_rng()
    keep = (rng.random(x.shape) >= rate).astype(PR.compute_dtype())
    return x * Tensor(keep / (1.0 - rate))


def top_k_indices(scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return the indices and values of the top-``k`` entries along the last axis.

    Results are sorted by descending score so index 0 is the arg-max.  This is
    a plain numpy helper (no gradient); routing decisions are discrete.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, scores.shape[-1])
    part = np.argpartition(-scores, k - 1, axis=-1)[..., :k]
    part_scores = np.take_along_axis(scores, part, axis=-1)
    if k == 1:
        return part, part_scores  # a single entry is already sorted
    order = np.argsort(-part_scores, axis=-1)
    idx = np.take_along_axis(part, order, axis=-1)
    vals = np.take_along_axis(part_scores, order, axis=-1)
    return idx, vals


def causal_mask(length: int) -> np.ndarray:
    """Boolean mask of shape ``(length, length)`` that is True above the diagonal.

    Positions where the mask is True must not be attended to.
    """
    return np.triu(np.ones((length, length), dtype=bool), k=1)


def padding_mask(token_ids: np.ndarray, pad_id: int) -> np.ndarray:
    """Boolean mask (True at padding positions) from a batch of token ids."""
    return np.asarray(token_ids) == pad_id
