"""Decode-cache checks shared by both model classes' tests.

``greedy_decode`` keeps one :class:`~repro.tensor.DecodeCache` per decoder
layer: the self-attention K/V grows a token per step, and the
cross-attention K/V over the encoder output is projected on the first step
only.  The reference below re-projects the cross-attention K/V at every
step, which is what an uncached cross-attention computes, so caching them
must leave every logit, token and routing decision bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import CrossKVCache, DecodeCache, no_grad

BOS, NO_EOS = 1, -1

#: A no-cache ``decode()`` over a whole prefix runs its projections as one
#: matrix-matrix product per row block, where a cached step multiplies one
#: row at a time; BLAS may round those differently in the last bits.
PREFIX_BUDGET = 1e-12


def padded_prompts(rng, vocab_size, batch, length):
    """Random prompts whose padding mask hides a different tail per row."""
    src = rng.integers(4, vocab_size, (batch, length))
    pad = np.zeros((batch, length), dtype=bool)
    for row in range(batch):
        pad[row, length - row % length:] = True
    return src, pad


def stepwise_decode(model, src, pad, steps, fresh_cross):
    """Greedy tokens, last-position logits and traces, one step at a time.

    With ``fresh_cross`` every step gets empty cross-attention caches, so
    the encoder output is re-projected per step.
    """
    layers = model.config.num_decoder_layers
    with no_grad():
        encoder_hidden = model.encode(src, padding_mask=pad)
        caches = [DecodeCache() for _ in range(layers)]
        tokens = np.full((src.shape[0], 1), BOS, dtype=np.int64)
        logits, traces = [], []
        for _ in range(steps):
            if fresh_cross:
                for cache in caches:
                    cache.cross_kv = CrossKVCache()
            trace = []
            step = model.decode(tokens[:, -1:], encoder_hidden, encoder_padding_mask=pad,
                                kv_caches=caches, trace=trace).numpy()[:, -1]
            logits.append(step)
            traces.append(trace)
            tokens = np.concatenate([tokens, np.argmax(step, axis=-1)[:, None]], axis=1)
    return tokens, logits, traces


def assert_traces_equal(got, want):
    assert len(got) == len(want)
    for step_got, step_want in zip(got, want):
        assert [(e.stack, e.layer_index, e.moe_block_index) for e in step_got] == \
            [(e.stack, e.layer_index, e.moe_block_index) for e in step_want]
        for a, b in zip(step_got, step_want):
            assert np.array_equal(a.decision.expert_indices, b.decision.expert_indices)
            assert np.array_equal(a.decision.expert_weights, b.decision.expert_weights)
            assert np.array_equal(a.decision.router_probs.data, b.decision.router_probs.data)
            assert a.decision.activated_experts == b.decision.activated_experts


def check_cached_steps_match_uncached(model, src, pad, steps=5):
    """Cached steps equal re-projected ones bit for bit, and equal a no-cache
    ``decode()`` over the same prefix (bit for bit on the first step)."""
    tokens, cached, cached_traces = stepwise_decode(model, src, pad, steps, fresh_cross=False)
    ref_tokens, uncached, uncached_traces = stepwise_decode(model, src, pad, steps,
                                                            fresh_cross=True)
    assert np.array_equal(tokens, ref_tokens)
    for got, want in zip(cached, uncached):
        assert np.array_equal(got, want)
    assert_traces_equal(cached_traces, uncached_traces)

    with no_grad():
        encoder_hidden = model.encode(src, padding_mask=pad)
        for t, got in enumerate(cached, start=1):
            full = model.decode(tokens[:, :t], encoder_hidden,
                                encoder_padding_mask=pad).numpy()[:, -1]
            if t == 1:
                assert np.array_equal(got, full)
            assert np.max(np.abs(got - full)) <= PREFIX_BUDGET

    generated, traces = model.greedy_decode(src, bos_id=BOS, eos_id=NO_EOS,
                                            max_new_tokens=steps,
                                            input_padding_mask=pad, collect_trace=True)
    assert np.array_equal(generated, tokens)
    assert_traces_equal(traces[1:], uncached_traces)


def check_no_leak_across_calls(model, fresh_model, rng, vocab_size):
    """A decode after one of another length and padding equals a fresh model's."""
    src_a, pad_a = padded_prompts(rng, vocab_size, batch=3, length=6)
    src_b, pad_b = padded_prompts(rng, vocab_size, batch=2, length=9)
    pad_b[0, 3:] = True
    model.greedy_decode(src_a, bos_id=BOS, eos_id=NO_EOS, max_new_tokens=4,
                        input_padding_mask=pad_a, collect_trace=True)
    got, got_traces = model.greedy_decode(src_b, bos_id=BOS, eos_id=NO_EOS, max_new_tokens=4,
                                          input_padding_mask=pad_b, collect_trace=True)
    want, want_traces = fresh_model.greedy_decode(src_b, bos_id=BOS, eos_id=NO_EOS,
                                                  max_new_tokens=4,
                                                  input_padding_mask=pad_b,
                                                  collect_trace=True)
    assert np.array_equal(got, want)
    assert_traces_equal(got_traces, want_traces)
