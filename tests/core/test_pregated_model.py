"""Tests for the pre-gated Switch-Transformer model."""

import numpy as np
import pytest

from repro.core import PreGatedSwitchTransformer
from repro.moe import SwitchTransformer, get_config
from repro.tensor import Adam
from repro.tensor import functional as F

from ..moe.decode_checks import (check_cached_steps_match_uncached,
                                 check_no_leak_across_calls, padded_prompts)


@pytest.fixture(scope="module")
def config():
    return get_config("tiny_moe_4")


@pytest.fixture(scope="module")
def conventional(config):
    return SwitchTransformer(config, seed=0)


@pytest.fixture(scope="module")
def pregated(config, conventional):
    model = PreGatedSwitchTransformer(config, activation_level=1, seed=1)
    model.load_from_conventional(conventional)
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(2)


class TestConstruction:
    def test_requires_moe_config(self):
        with pytest.raises(ValueError):
            PreGatedSwitchTransformer(get_config("tiny_dense"))

    def test_requires_positive_activation_level(self, config):
        with pytest.raises(ValueError):
            PreGatedSwitchTransformer(config, activation_level=0)

    def test_gate_placement_matches_schedule(self, pregated):
        """First decoder MoE block: first gate + pre-gate; last: no pre-gate."""
        decoder_moe_layers = pregated.decoder_moe_positions
        first_layer = pregated.decoder_blocks[decoder_moe_layers[0]]
        last_layer = pregated.decoder_blocks[decoder_moe_layers[-1]]
        assert len(first_layer.moe.first_gates) == 1
        assert first_layer.moe.pre_gate is not None
        assert last_layer.moe.pre_gate is None

    def test_total_gate_count_matches_conventional(self, config, conventional, pregated):
        """Re-wiring gates neither adds nor removes gate parameters overall."""
        def count_gate_params(model):
            return sum(p.size for name, p in model.named_parameters()
                       if "gate" in name and "classifier" in name)
        assert count_gate_params(pregated) == count_gate_params(conventional)


class TestWeightReuse:
    def test_shared_weights_copied_exactly(self, conventional, pregated):
        conv_state = conventional.state_dict()
        pre_state = pregated.state_dict()
        shared = [name for name in conv_state
                  if ".moe.gate." not in name and name in pre_state]
        assert shared, "expected shared parameter names"
        for name in shared:
            assert np.allclose(conv_state[name], pre_state[name]), name

    def test_expert_weights_copied(self, conventional, pregated):
        conv_state = conventional.state_dict()
        pre_state = pregated.state_dict()
        expert_names = [n for n in conv_state if ".moe.experts." in n]
        assert expert_names
        for name in expert_names:
            assert name in pre_state
            assert np.allclose(conv_state[name], pre_state[name])

    def test_gates_remapped_to_selecting_block(self, config, conventional):
        """The conventional gate of MoE block i initialises the gate that now selects
        for block i (a first gate or an earlier block's pre-gate)."""
        pregated = PreGatedSwitchTransformer(config, activation_level=1, seed=9)
        pregated.load_from_conventional(conventional)
        conv_state = conventional.state_dict()
        positions = pregated.decoder_moe_positions
        # Block 0's conventional gate -> pre-gated first gate at the same layer.
        src = conv_state[f"decoder_blocks.{positions[0]}.moe.gate.classifier.weight"]
        dst = dict(pregated.named_parameters())[
            f"decoder_blocks.{positions[0]}.moe.first_gates.0.classifier.weight"]
        assert np.allclose(src, dst.data)
        # Block 1's conventional gate -> block 0's pre-gate.
        src1 = conv_state[f"decoder_blocks.{positions[1]}.moe.gate.classifier.weight"]
        dst1 = dict(pregated.named_parameters())[
            f"decoder_blocks.{positions[0]}.moe.pre_gate.classifier.weight"]
        assert np.allclose(src1, dst1.data)

    def test_config_mismatch_rejected(self, conventional):
        other = PreGatedSwitchTransformer(get_config("tiny_moe_8"), seed=0)
        with pytest.raises(ValueError):
            other.load_from_conventional(conventional)


class TestForwardAndTraining:
    def test_forward_shapes_and_trace(self, pregated, config, rng):
        src = rng.integers(4, config.vocab_size, (2, 7))
        tgt = rng.integers(4, config.vocab_size, (2, 4))
        out = pregated(src, tgt)
        assert out.logits.shape == (2, 4, config.vocab_size)
        assert len(out.routing_trace) == config.num_moe_blocks("all")

    def test_activation_levels_2_and_3(self, config, rng):
        src = rng.integers(4, config.vocab_size, (1, 5))
        tgt = rng.integers(4, config.vocab_size, (1, 3))
        for level in (2, 3):
            model = PreGatedSwitchTransformer(config, activation_level=level, seed=level)
            out = model(src, tgt)
            assert out.logits.shape == (1, 3, config.vocab_size)

    def test_training_step_reduces_loss(self, config, rng):
        model = PreGatedSwitchTransformer(config, activation_level=1, seed=7)
        opt = Adam(model.parameters(), lr=2e-3)
        src = rng.integers(4, config.vocab_size, (8, 6))
        tgt = rng.integers(4, config.vocab_size, (8, 4))
        losses = []
        for _ in range(10):
            out = model(src, tgt)
            loss = F.cross_entropy(out.logits, tgt) + out.aux_loss * 0.01
            model.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_pre_gate_receives_gradients(self, config, rng):
        model = PreGatedSwitchTransformer(config, activation_level=1, seed=8)
        src = rng.integers(4, config.vocab_size, (2, 5))
        tgt = rng.integers(4, config.vocab_size, (2, 3))
        out = model(src, tgt)
        (F.cross_entropy(out.logits, tgt) + out.aux_loss).backward()
        pre_gate_grads = [p.grad is not None for name, p in model.named_parameters()
                          if ".pre_gate." in name]
        assert pre_gate_grads and any(pre_gate_grads)


class TestGeneration:
    def test_greedy_decode(self, pregated, config, rng):
        src = rng.integers(4, config.vocab_size, (2, 6))
        generated, traces = pregated.greedy_decode(src, bos_id=1, eos_id=2,
                                                   max_new_tokens=4, collect_trace=True)
        assert generated.shape[0] == 2
        assert (generated[:, 0] == 1).all()
        assert len(traces) >= 1

    def test_trace_chain_is_per_iteration(self, pregated, config, rng):
        """Pre-gate chains never span decoder iterations (Figure 6)."""
        src = rng.integers(4, config.vocab_size, (1, 5))
        _, traces = pregated.greedy_decode(src, bos_id=1, eos_id=2,
                                           max_new_tokens=3, collect_trace=True)
        decoder_blocks = config.num_moe_blocks("decoder")
        for step_trace in traces[1:]:
            entries = [e for e in step_trace if e.stack == "decoder"]
            assert len(entries) == decoder_blocks
            assert [e.moe_block_index for e in entries] == list(range(decoder_blocks))

    def test_shares_the_conventional_decode_loop(self):
        # Defined in the class body (not only inherited), so wrappers that
        # patch ``vars(cls)["greedy_decode"]`` find it, yet one loop body.
        assert (vars(PreGatedSwitchTransformer)["greedy_decode"]
                is SwitchTransformer.greedy_decode)

    def test_cached_decode_matches_full_recompute(self, pregated, config, rng):
        """Each KV-cached greedy token is the argmax of a full forward pass."""
        src = rng.integers(4, config.vocab_size, (3, 6))
        generated, _ = pregated.greedy_decode(src, bos_id=1, eos_id=2,
                                              max_new_tokens=5)
        finished = np.zeros(len(src), dtype=bool)
        for t in range(1, generated.shape[1]):
            logits = pregated(src, generated[:, :t]).logits.numpy()
            expected = np.argmax(logits[:, -1, :], axis=-1)
            live = ~finished
            assert np.array_equal(generated[live, t], expected[live])
            assert (generated[finished, t] == 2).all()
            finished |= generated[:, t] == 2

    def test_cached_cross_attention_is_bit_identical(self, pregated, config, rng):
        """Per-decode cross-attention K/V change no logit, token or trace."""
        src, pad = padded_prompts(rng, config.vocab_size, batch=3, length=6)
        check_cached_steps_match_uncached(pregated, src, pad)

    def test_nothing_leaks_into_the_next_decode(self, config, rng):
        check_no_leak_across_calls(PreGatedSwitchTransformer(config, seed=3),
                                   PreGatedSwitchTransformer(config, seed=3),
                                   rng, config.vocab_size)
