"""Multi-head attention for the transformer substrate.

Supports self-attention (with optional causal masking for the decoder) and
cross-attention (decoder attending to encoder output), plus incremental
decoding through an explicit key/value cache so the serving engines can run
token-by-token decoder iterations exactly as described in Figure 6 of the
paper.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from . import functional as F
from .autograd import Tensor, scaled_dot_product_attention
from .layers import Linear
from .module import Module

_NEG_INF = -1e9


class KVCache:
    """Key/value cache for incremental decoding.

    Keys and values are stored in preallocated ``(batch, capacity, dim)``
    buffers that double in capacity when full, so appending one token is an
    amortised O(token) copy instead of re-concatenating the whole history
    (which made a T-token decode O(T²)).  :attr:`keys` / :attr:`values`
    expose zero-copy slice views of the filled prefix.
    """

    __slots__ = ("_keys", "_values", "_length")

    _MIN_CAPACITY = 16

    def __init__(self, keys: Optional[np.ndarray] = None,
                 values: Optional[np.ndarray] = None) -> None:
        self._keys: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._length = 0
        if keys is not None:
            self.append(keys, values)

    def append(self, new_keys: np.ndarray, new_values: np.ndarray) -> None:
        """Append ``(batch, added, dim)`` keys and values.

        Raises ``ValueError`` (before writing anything) when the keys and
        values disagree in shape, or their batch or dim differ from what
        the cache holds: numpy would otherwise broadcast a single row into
        every batch slot.
        """
        new_keys = np.asarray(new_keys)
        new_values = np.asarray(new_values)
        if new_keys.ndim != 3 or new_values.shape != new_keys.shape:
            raise ValueError(
                f"keys {new_keys.shape} and values {new_values.shape} must share "
                "one (batch, tokens, dim) shape")
        batch, added, dim = new_keys.shape
        if self._keys is not None and (batch, dim) != (self._keys.shape[0], self._keys.shape[2]):
            raise ValueError(
                f"cannot append (batch={batch}, dim={dim}) to a cache of "
                f"(batch={self._keys.shape[0]}, dim={self._keys.shape[2]})")
        needed = self._length + added
        if self._keys is None:
            capacity = max(self._MIN_CAPACITY, needed)
            self._keys = np.empty((batch, capacity, dim), dtype=new_keys.dtype)
            self._values = np.empty((batch, capacity, dim), dtype=new_values.dtype)
        elif needed > self._keys.shape[1]:
            capacity = self._keys.shape[1]
            while capacity < needed:
                capacity *= 2
            for name in ("_keys", "_values"):
                old = getattr(self, name)
                grown = np.empty((batch, capacity, dim), dtype=old.dtype)
                grown[:, :self._length] = old[:, :self._length]
                setattr(self, name, grown)
        self._keys[:, self._length:needed] = new_keys
        self._values[:, self._length:needed] = new_values
        self._length = needed

    def split_heads(self, num_heads: int) -> Tuple[np.ndarray, np.ndarray]:
        """Filled keys and values as ``(batch, heads, length, head_dim)`` views."""
        batch, _, dim = self._keys.shape
        shape = (batch, self._length, num_heads, dim // num_heads)
        return (self._keys[:, :self._length].reshape(shape).transpose(0, 2, 1, 3),
                self._values[:, :self._length].reshape(shape).transpose(0, 2, 1, 3))

    @property
    def keys(self) -> Optional[np.ndarray]:
        """View of the filled key prefix, ``(batch, length, dim)``."""
        return None if self._keys is None else self._keys[:, :self._length]

    @property
    def values(self) -> Optional[np.ndarray]:
        """View of the filled value prefix, ``(batch, length, dim)``."""
        return None if self._values is None else self._values[:, :self._length]

    @property
    def length(self) -> int:
        return self._length


class CrossKVCache:
    """Cross-attention keys/values over a source that is fixed for a decode.

    The encoder output does not change while a decoder generates, so the
    first :meth:`MultiHeadAttention.forward` that receives this cache
    projects and head-splits the source keys/values and builds the
    broadcast padding mask once; every later step reuses them.
    """

    __slots__ = ("keys", "values", "mask")

    def __init__(self) -> None:
        self.keys: Optional[Tensor] = None
        self.values: Optional[Tensor] = None
        self.mask: Optional[np.ndarray] = None


class DecodeCache:
    """One decoder layer's state across the steps of an incremental decode:
    the growing self-attention :class:`KVCache` and the fixed
    :class:`CrossKVCache`."""

    __slots__ = ("self_kv", "cross_kv")

    def __init__(self) -> None:
        self.self_kv = KVCache()
        self.cross_kv = CrossKVCache()


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head attention.

    Parameters
    ----------
    dim:
        Model (embedding) dimension.
    num_heads:
        Number of attention heads; must divide ``dim``.
    causal:
        If True the attention is masked so position *i* cannot attend to
        positions greater than *i* (decoder self-attention).
    """

    def __init__(self, dim: int, num_heads: int, causal: bool = False,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim ({dim}) must be divisible by num_heads ({num_heads})")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        self._scale = 1.0 / np.sqrt(self.head_dim)
        self.q_proj = Linear(dim, dim, bias=False, rng=rng)
        self.k_proj = Linear(dim, dim, bias=False, rng=rng)
        self.v_proj = Linear(dim, dim, bias=False, rng=rng)
        self.out_proj = Linear(dim, dim, bias=False, rng=rng)

    # ------------------------------------------------------------------
    def _split_heads(self, x: Tensor) -> Tensor:
        batch, length, _ = x.shape
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor) -> Tensor:
        batch, heads, length, head_dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, length, heads * head_dim)

    # ------------------------------------------------------------------
    def forward(
        self,
        query: Tensor,
        key: Optional[Tensor] = None,
        value: Optional[Tensor] = None,
        key_padding_mask: Optional[np.ndarray] = None,
        kv_cache: Optional[Union[KVCache, CrossKVCache]] = None,
    ) -> Tensor:
        """Compute attention output.

        Parameters
        ----------
        query:
            Tensor of shape ``(batch, q_len, dim)``.
        key / value:
            Source sequence for cross-attention.  Defaults to ``query``
            (self-attention).
        key_padding_mask:
            Boolean array ``(batch, k_len)`` that is True at padding
            positions that must not be attended to.
        kv_cache:
            A :class:`KVCache` (decoder self-attention during incremental
            decoding): new keys/values are appended to the cache and
            attention is computed over the full cached sequence.  A
            :class:`CrossKVCache` (cross-attention during incremental
            decoding): the source keys/values and mask are projected on the
            first call and reused by later ones.
        """
        q = self._split_heads(self.q_proj(query))
        if isinstance(kv_cache, CrossKVCache):
            if kv_cache.keys is None:
                kv_cache.keys, kv_cache.values, kv_cache.mask = self._keys_values(
                    query, key, value, key_padding_mask, None)
            k, v, mask = kv_cache.keys, kv_cache.values, kv_cache.mask
        else:
            k, v, mask = self._keys_values(query, key, value, key_padding_mask, kv_cache)

        # Fused scores → mask → softmax → context kernel: one graph node
        # (repro.tensor.primitives.SDPA) instead of ~6 per attention call.
        context = scaled_dot_product_attention(q, k, v, mask=mask, scale=self._scale)
        return self.out_proj(self._merge_heads(context))

    def _keys_values(self, query: Tensor, key: Optional[Tensor], value: Optional[Tensor],
                     key_padding_mask: Optional[np.ndarray], kv_cache: Optional[KVCache]
                     ) -> Tuple[Tensor, Tensor, Optional[np.ndarray]]:
        """Head-split keys and values, and the boolean mask over the scores."""
        key = query if key is None else key
        value = key if value is None else value
        k_new = self.k_proj(key)
        v_new = self.v_proj(value)

        mask: Optional[np.ndarray] = None
        if kv_cache is not None:
            kv_cache.append(k_new.data, v_new.data)
            keys, values = kv_cache.split_heads(self.num_heads)
            k, v = Tensor(keys), Tensor(values)
        else:
            k = self._split_heads(k_new)
            v = self._split_heads(v_new)
            q_len = query.shape[1]
            if self.causal and q_len > 1:
                mask = F.causal_mask(q_len)[None, None, :, :]

        if key_padding_mask is not None:
            k_len = k.shape[2]
            pad = np.asarray(key_padding_mask, dtype=bool)
            if pad.shape[-1] != k_len:
                raise ValueError(
                    f"key_padding_mask length {pad.shape[-1]} does not match key length {k_len}"
                )
            pad = pad[:, None, None, :]
            mask = pad if mask is None else (mask | pad)
        return k, v, mask


class FeedForward(Module):
    """Position-wise feed-forward network (the dense FFN of Figure 1a).

    The same module is used, unchanged, as the *expert layer* in the MoE
    block — the paper notes each expert has the same dimension as the dense
    FFN it replaces.
    """

    def __init__(self, dim: int, hidden_dim: int, activation: str = "relu",
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if activation not in ("relu", "gelu"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.dim = dim
        self.hidden_dim = hidden_dim
        self.activation = activation
        self.wi = Linear(dim, hidden_dim, bias=False, rng=rng)
        self.wo = Linear(hidden_dim, dim, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.wi(x)
        hidden = hidden.relu() if self.activation == "relu" else hidden.gelu()
        return self.wo(hidden)
