"""Tests for the conventional Switch-Transformer model."""

import numpy as np
import pytest

from repro.moe import SwitchTransformer, get_config
from repro.moe.transformer import _moe_layer_positions
from repro.tensor import functional as F
from repro.tensor import Adam

from .decode_checks import (check_cached_steps_match_uncached, check_no_leak_across_calls,
                            padded_prompts)


@pytest.fixture(scope="module")
def tiny_moe_model():
    return SwitchTransformer(get_config("tiny_moe_4"), seed=0)


@pytest.fixture(scope="module")
def tiny_dense_model():
    return SwitchTransformer(get_config("tiny_dense"), seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(1)


class TestMoELayerPositions:
    def test_every_other_layer(self):
        assert _moe_layer_positions(12, 2) == [1, 3, 5, 7, 9, 11]

    def test_every_layer(self):
        assert _moe_layer_positions(4, 1) == [0, 1, 2, 3]

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            _moe_layer_positions(4, 0)


class TestForward:
    def test_logits_shape(self, tiny_moe_model, rng):
        cfg = tiny_moe_model.config
        src = rng.integers(4, cfg.vocab_size, (2, 9))
        tgt = rng.integers(4, cfg.vocab_size, (2, 5))
        out = tiny_moe_model(src, tgt)
        assert out.logits.shape == (2, 5, cfg.vocab_size)

    def test_routing_trace_covers_all_moe_blocks(self, tiny_moe_model, rng):
        cfg = tiny_moe_model.config
        src = rng.integers(4, cfg.vocab_size, (1, 6))
        tgt = rng.integers(4, cfg.vocab_size, (1, 4))
        out = tiny_moe_model(src, tgt)
        expected = cfg.num_moe_blocks("all")
        assert len(out.routing_trace) == expected
        stacks = {(e.stack, e.moe_block_index) for e in out.routing_trace}
        assert len(stacks) == expected

    def test_aux_loss_positive_for_moe(self, tiny_moe_model, rng):
        cfg = tiny_moe_model.config
        out = tiny_moe_model(rng.integers(4, cfg.vocab_size, (1, 6)),
                             rng.integers(4, cfg.vocab_size, (1, 4)))
        assert out.aux_loss.item() > 0

    def test_dense_model_has_no_routing(self, tiny_dense_model, rng):
        cfg = tiny_dense_model.config
        out = tiny_dense_model(rng.integers(4, cfg.vocab_size, (1, 6)),
                               rng.integers(4, cfg.vocab_size, (1, 4)))
        assert out.routing_trace == []
        assert out.aux_loss.item() == 0.0

    def test_padding_mask_blocks_pad_influence(self, rng):
        model = SwitchTransformer(get_config("tiny_moe_4"), seed=3)
        model.eval()
        cfg = model.config
        src = rng.integers(4, cfg.vocab_size, (1, 6))
        src_padded = src.copy()
        src_padded[0, -2:] = 0
        mask = src_padded == 0
        tgt = rng.integers(4, cfg.vocab_size, (1, 3))
        out1 = model(src_padded, tgt, input_padding_mask=mask).logits.numpy()
        src_other = src_padded.copy()
        src_other[0, -1] = 5  # change a padded position but keep masking it
        out2 = model(src_other, tgt, input_padding_mask=mask).logits.numpy()
        assert np.allclose(out1, out2, atol=1e-8)


class TestTraining:
    def test_loss_decreases_over_steps(self, rng):
        cfg = get_config("tiny_moe_4")
        model = SwitchTransformer(cfg, seed=2)
        opt = Adam(model.parameters(), lr=2e-3)
        src = rng.integers(4, cfg.vocab_size, (8, 6))
        tgt = rng.integers(4, cfg.vocab_size, (8, 4))
        losses = []
        for _ in range(12):
            out = model(src, tgt)
            loss = F.cross_entropy(out.logits, tgt) + out.aux_loss * 0.01
            model.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_gradients_reach_embedding_and_experts(self, rng):
        cfg = get_config("tiny_moe_4")
        model = SwitchTransformer(cfg, seed=4)
        src = rng.integers(4, cfg.vocab_size, (2, 5))
        tgt = rng.integers(4, cfg.vocab_size, (2, 3))
        out = model(src, tgt)
        (F.cross_entropy(out.logits, tgt) + out.aux_loss).backward()
        assert model.embedding.weight.grad is not None
        moe_grads = [p.grad is not None for name, p in model.named_parameters()
                     if ".moe.experts." in name and name.endswith("wi.weight")]
        assert any(moe_grads)


class TestGeneration:
    def test_greedy_decode_shapes_and_bos(self, tiny_moe_model, rng):
        cfg = tiny_moe_model.config
        src = rng.integers(4, cfg.vocab_size, (3, 5))
        generated, traces = tiny_moe_model.greedy_decode(src, bos_id=1, eos_id=2,
                                                         max_new_tokens=4)
        assert generated.shape[0] == 3
        assert generated.shape[1] <= 5
        assert (generated[:, 0] == 1).all()
        assert traces == []

    def test_collect_trace_records_each_iteration(self, tiny_moe_model, rng):
        cfg = tiny_moe_model.config
        src = rng.integers(4, cfg.vocab_size, (1, 5))
        generated, traces = tiny_moe_model.greedy_decode(
            src, bos_id=1, eos_id=2, max_new_tokens=3, collect_trace=True)
        # First trace entry is the encoder pass, the rest are decoder iterations.
        assert len(traces) == generated.shape[1]  # encoder + (len-1) decode steps
        decoder_blocks = cfg.num_moe_blocks("decoder")
        for step_trace in traces[1:]:
            assert len([e for e in step_trace if e.stack == "decoder"]) == decoder_blocks

    def test_eos_stops_generation(self, rng):
        cfg = get_config("tiny_moe_4")
        model = SwitchTransformer(cfg, seed=5)
        src = rng.integers(4, cfg.vocab_size, (2, 4))
        generated, _ = model.greedy_decode(src, bos_id=1, eos_id=2, max_new_tokens=20)
        assert generated.shape[1] <= 21

    def test_decode_is_deterministic(self, tiny_moe_model, rng):
        cfg = tiny_moe_model.config
        src = rng.integers(4, cfg.vocab_size, (2, 5))
        a, _ = tiny_moe_model.greedy_decode(src, bos_id=1, eos_id=2, max_new_tokens=4)
        b, _ = tiny_moe_model.greedy_decode(src, bos_id=1, eos_id=2, max_new_tokens=4)
        assert np.array_equal(a, b)

    def test_cached_decode_matches_full_recompute(self, tiny_moe_model, rng):
        """Each KV-cached greedy token is the argmax of a full forward pass."""
        cfg = tiny_moe_model.config
        src = rng.integers(4, cfg.vocab_size, (3, 5))
        generated, _ = tiny_moe_model.greedy_decode(src, bos_id=1, eos_id=2,
                                                    max_new_tokens=5)
        finished = np.zeros(len(src), dtype=bool)
        for t in range(1, generated.shape[1]):
            logits = tiny_moe_model(src, generated[:, :t]).logits.numpy()
            expected = np.argmax(logits[:, -1, :], axis=-1)
            live = ~finished
            assert np.array_equal(generated[live, t], expected[live])
            assert (generated[finished, t] == 2).all()
            finished |= generated[:, t] == 2

    def test_cached_cross_attention_is_bit_identical(self, tiny_moe_model, rng):
        """Per-decode cross-attention K/V change no logit, token or trace."""
        src, pad = padded_prompts(rng, tiny_moe_model.config.vocab_size, batch=3, length=6)
        check_cached_steps_match_uncached(tiny_moe_model, src, pad)

    def test_nothing_leaks_into_the_next_decode(self, rng):
        cfg = get_config("tiny_moe_4")
        check_no_leak_across_calls(SwitchTransformer(cfg, seed=3),
                                   SwitchTransformer(cfg, seed=3), rng, cfg.vocab_size)


class TestParameterAccounting:
    def test_model_counts_match_config_arithmetic(self):
        """The instantiated tiny model's parameter count matches the analytic model."""
        cfg = get_config("tiny_moe_4")
        model = SwitchTransformer(cfg, seed=0)
        analytic = cfg.total_params()
        actual = model.num_parameters()
        # The analytic model excludes the (untied) LM head and counts the
        # shared embedding once; allow that known structural difference.
        lm_head = cfg.vocab_size * cfg.d_model
        assert actual == pytest.approx(analytic + lm_head, rel=0.02)

    def test_block_counts(self):
        cfg = get_config("tiny_moe_4")
        model = SwitchTransformer(cfg, seed=0)
        assert model.encoder_moe_block_count() == cfg.num_moe_blocks("encoder")
        assert model.decoder_moe_block_count() == cfg.num_moe_blocks("decoder")
