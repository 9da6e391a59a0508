"""KVCache preallocation: amortised append, capacity doubling, slice views,
and append's shape checks (no silent broadcasting into the cache).

The seed implementation re-``np.concatenate``d the whole cache on every
appended token (O(T²) over a T-token decode); the preallocated cache grows
by capacity doubling and exposes zero-copy views of the filled prefix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor.attention import KVCache


def test_empty_cache():
    cache = KVCache()
    assert cache.length == 0
    assert cache.keys is None
    assert cache.values is None


def test_append_accumulates_in_order():
    cache = KVCache()
    rng = np.random.default_rng(0)
    chunks = [rng.standard_normal((2, n, 4)) for n in (1, 3, 1, 2)]
    for chunk in chunks:
        cache.append(chunk, chunk * 2.0)
    expected = np.concatenate(chunks, axis=1)
    assert cache.length == expected.shape[1]
    np.testing.assert_array_equal(cache.keys, expected)
    np.testing.assert_array_equal(cache.values, expected * 2.0)


def test_capacity_doubles_not_reallocates_per_token():
    cache = KVCache()
    token = np.ones((1, 1, 8))
    cache.append(token, token)
    buffer = cache._keys
    capacity = buffer.shape[1]
    # Appends within capacity reuse the same underlying buffer.
    for _ in range(capacity - 1):
        cache.append(token, token)
    assert cache._keys is buffer
    # The append that exceeds capacity grows it geometrically (doubling),
    # keeping a T-token decode at O(T) amortised copies.
    cache.append(token, token)
    assert cache._keys is not buffer
    assert cache._keys.shape[1] == 2 * capacity
    assert cache.length == capacity + 1


def test_views_are_zero_copy_and_track_growth():
    cache = KVCache()
    first = np.arange(8.0).reshape(1, 1, 8)
    cache.append(first, first)
    keys = cache.keys
    assert keys.base is cache._keys          # slice view, not a copy
    np.testing.assert_array_equal(keys[0, 0], first[0, 0])
    cache.append(first + 1.0, first + 1.0)
    assert cache.keys.shape == (1, 2, 8)
    np.testing.assert_array_equal(cache.keys[0, 1], first[0, 0] + 1.0)


def test_constructor_seeds_from_initial_tensors():
    rng = np.random.default_rng(1)
    keys = rng.standard_normal((2, 5, 4))
    values = rng.standard_normal((2, 5, 4))
    cache = KVCache(keys, values)
    assert cache.length == 5
    np.testing.assert_array_equal(cache.keys, keys)
    np.testing.assert_array_equal(cache.values, values)


def test_append_rejects_batch_mismatch_without_broadcasting():
    cache = KVCache()
    rng = np.random.default_rng(2)
    keys = rng.standard_normal((4, 2, 8))
    cache.append(keys, keys)
    # numpy would broadcast one row into all four batch slots.
    with pytest.raises(ValueError, match="batch"):
        cache.append(np.ones((1, 1, 8)), np.ones((1, 1, 8)))
    assert cache.length == 2
    np.testing.assert_array_equal(cache.keys, keys)


def test_append_rejects_dim_mismatch():
    cache = KVCache(np.zeros((2, 1, 8)), np.zeros((2, 1, 8)))
    with pytest.raises(ValueError, match="dim"):
        cache.append(np.ones((2, 1, 4)), np.ones((2, 1, 4)))
    assert cache.length == 1


@pytest.mark.parametrize("value_shape", [(1, 3, 8), (2, 1, 8), (2, 3, 1)])
def test_append_rejects_values_shaped_unlike_keys(value_shape):
    cache = KVCache()
    keys = np.ones((2, 3, 8))
    # Each of these values arrays would broadcast into the keys' shape.
    with pytest.raises(ValueError, match="values"):
        cache.append(keys, np.ones(value_shape))
    assert cache.length == 0 and cache.keys is None
    cache.append(keys, keys)
    with pytest.raises(ValueError, match="values"):
        cache.append(keys, np.ones(value_shape))
    assert cache.length == 3
    np.testing.assert_array_equal(cache.values, keys)


def test_split_heads_are_views_of_the_filled_prefix():
    rng = np.random.default_rng(3)
    keys = rng.standard_normal((2, 3, 8))
    values = rng.standard_normal((2, 3, 8))
    cache = KVCache(keys, values)
    k, v = cache.split_heads(num_heads=2)
    assert k.shape == v.shape == (2, 2, 3, 4)
    assert k.base is cache._keys and v.base is cache._values
    np.testing.assert_array_equal(k, keys.reshape(2, 3, 2, 4).transpose(0, 2, 1, 3))
    np.testing.assert_array_equal(v, values.reshape(2, 3, 2, 4).transpose(0, 2, 1, 3))
