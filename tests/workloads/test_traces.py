"""Tests for the expert-activation trace generators and workload specs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.moe import SwitchTransformer, get_config
from repro.workloads import (
    SQUAD_SINGLE_BATCH,
    TraceGenerator,
    expected_distinct_experts,
    generate_traces,
    generate_traces_by_name,
    get_workload,
    list_workloads,
    trace_from_routing,
)


CONFIG = get_config("switch_base_64")


class TestTraceGenerator:
    def test_block_activation_respects_topk(self):
        gen = TraceGenerator(CONFIG, seed=0)
        activation = gen.block_activation(num_tokens=1)
        assert len(activation) == 1
        assert 0 <= activation[0] < CONFIG.num_experts

    def test_more_tokens_activate_more_experts(self):
        gen = TraceGenerator(CONFIG, seed=1)
        few = gen.block_activation(num_tokens=1)
        many = gen.block_activation(num_tokens=128)
        assert len(many) > len(few)
        assert len(many) <= CONFIG.num_experts

    def test_activations_sorted_unique(self):
        gen = TraceGenerator(CONFIG, seed=2)
        activation = gen.block_activation(num_tokens=50)
        assert activation == tuple(sorted(set(activation)))

    def test_request_trace_structure(self):
        gen = TraceGenerator(CONFIG, seed=3)
        trace = gen.request_trace(input_length=16, output_length=4)
        assert len(trace.encoder_activations) == CONFIG.num_moe_blocks("encoder")
        assert len(trace.decode_activations) == 4
        assert trace.num_decoder_moe_blocks == CONFIG.num_moe_blocks("decoder")
        assert trace.total_decode_expert_activations() >= 4

    def test_workload_size(self):
        traces = TraceGenerator(CONFIG, seed=4).workload(3, input_length=8, output_length=2)
        assert len(traces) == 3

    def test_skew_concentrates_activations(self):
        """With heavy skew, far fewer distinct experts are touched overall."""
        uniform = TraceGenerator(CONFIG, skew=0.0, seed=5)
        skewed = TraceGenerator(CONFIG, skew=2.0, seed=5)
        uniform_experts = set()
        skewed_experts = set()
        for _ in range(50):
            uniform_experts.update(uniform.block_activation(4))
            skewed_experts.update(skewed.block_activation(4))
        assert len(skewed_experts) < len(uniform_experts)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TraceGenerator(CONFIG, skew=-1.0)
        with pytest.raises(ValueError):
            TraceGenerator(CONFIG, top_k=0)
        with pytest.raises(ValueError):
            TraceGenerator(CONFIG).request_trace(input_length=0, output_length=1)

    def test_top_k_override(self):
        gen = TraceGenerator(CONFIG, seed=6)
        activation = gen.block_activation(num_tokens=1, top_k=4)
        assert len(activation) == 4

    def test_deterministic_per_seed(self):
        a = TraceGenerator(CONFIG, seed=9).request_trace(8, 3)
        b = TraceGenerator(CONFIG, seed=9).request_trace(8, 3)
        assert a.decode_activations == b.decode_activations


def _sequential_block(rng, probabilities, num_tokens, top_k):
    """One block drawn on its own, as a per-block sampling loop draws it."""
    if top_k == 1:
        cdf = probabilities.cumsum()
        cdf /= cdf[-1]
        draws = cdf.searchsorted(rng.random(num_tokens), side="right")
    else:
        keys = rng.gumbel(size=(num_tokens, len(probabilities))) + np.log(probabilities)
        draws = np.argpartition(-keys, top_k - 1, axis=1)[:, :top_k]
    return tuple(sorted({int(e) for e in draws.ravel()}))


class TestBulkSampler:
    """One bulk RNG draw per request equals the per-block draw sequence."""

    @pytest.mark.parametrize("skew", [0.0, 1.2])
    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("top_k", [1, 2])
    def test_request_trace_equals_sequential_block_draws(self, top_k, batch_size, skew):
        gen = TraceGenerator(CONFIG, skew=skew, top_k=top_k, seed=21)
        traces = [gen.request_trace(5, 6, batch_size=batch_size) for _ in range(2)]
        tail = gen.iteration_activations(4, 3)

        rng = np.random.default_rng(21)
        probabilities = gen._expert_distribution()
        encoder_blocks = CONFIG.num_moe_blocks("encoder")
        decoder_blocks = CONFIG.num_moe_blocks("decoder")
        for trace in traces:
            encoder = [_sequential_block(rng, probabilities, 5 * batch_size, top_k)
                       for _ in range(encoder_blocks)]
            decode = [[_sequential_block(rng, probabilities, batch_size, top_k)
                       for _ in range(decoder_blocks)] for _ in range(6)]
            assert trace.encoder_activations == encoder
            assert trace.decode_activations == decode
        assert tail == [_sequential_block(rng, probabilities, 4, top_k)
                        for _ in range(3)]

    def test_single_token_blocks_are_shared_tuples(self):
        gen = TraceGenerator(CONFIG, skew=1.2, top_k=1, seed=22)
        blocks = [block for trace in gen.workload(3, input_length=4, output_length=16)
                  for iteration in trace.decode_activations for block in iteration]
        blocks += gen.iteration_activations(1, 8) + [gen.block_activation(1)]
        first = {}
        for block in blocks:
            assert type(block) is tuple and len(block) == 1
            assert first.setdefault(block, block) is block
        assert len(first) < len(blocks)


class TestExpectedDistinctExperts:
    def test_single_token(self):
        assert expected_distinct_experts(1, 64) == pytest.approx(1.0)

    def test_many_tokens_saturate(self):
        assert expected_distinct_experts(10_000, 64) == pytest.approx(64.0, rel=1e-3)

    def test_matches_empirical_mean(self):
        gen = TraceGenerator(CONFIG, seed=11)
        empirical = np.mean([len(gen.block_activation(32)) for _ in range(100)])
        analytic = expected_distinct_experts(32, CONFIG.num_experts)
        assert empirical == pytest.approx(analytic, rel=0.1)

    def test_invalid_expert_count(self):
        with pytest.raises(ValueError):
            expected_distinct_experts(1, 0)


class TestTraceFromRouting:
    def test_functional_model_trace_converts(self):
        config = get_config("tiny_moe_4")
        model = SwitchTransformer(config, seed=0)
        src = np.random.default_rng(0).integers(4, config.vocab_size, (1, 6))
        _, traces = model.greedy_decode(src, bos_id=1, eos_id=2, max_new_tokens=3,
                                        collect_trace=True)
        request = trace_from_routing(traces, input_length=6)
        assert len(request.encoder_activations) == config.num_moe_blocks("encoder")
        assert len(request.decode_activations) >= 1
        for iteration in request.decode_activations:
            assert len(iteration) == config.num_moe_blocks("decoder")
            for block in iteration:
                assert all(0 <= e < config.num_experts for e in block)
                assert block == tuple(sorted(set(block)))
        assert all(type(block) is tuple for block in request.encoder_activations)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            trace_from_routing([], input_length=4)


class TestWorkloadSpecs:
    def test_named_workloads_exist(self):
        assert get_workload("squad_single_batch") is SQUAD_SINGLE_BATCH
        assert set(list_workloads()) >= {"squad_single_batch", "xsum_single_batch",
                                         "skewed_routing"}

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("mmlu")

    def test_single_batch_serving_default(self):
        """The paper's performance evaluation uses batch size 1."""
        assert SQUAD_SINGLE_BATCH.batch_size == 1

    def test_generate_traces_matches_spec(self):
        spec = SQUAD_SINGLE_BATCH.with_overrides(num_requests=2, output_length=3)
        traces = generate_traces(CONFIG, spec)
        assert len(traces) == 2
        assert all(len(t.decode_activations) == 3 for t in traces)

    def test_generate_by_name(self):
        traces = generate_traces_by_name("switch_base_8", "squad_single_batch")
        assert len(traces) == SQUAD_SINGLE_BATCH.num_requests

    def test_with_overrides_is_copy(self):
        modified = SQUAD_SINGLE_BATCH.with_overrides(routing_skew=1.0)
        assert modified.routing_skew == 1.0
        assert SQUAD_SINGLE_BATCH.routing_skew == 0.0


@settings(max_examples=25, deadline=None)
@given(num_tokens=st.integers(min_value=1, max_value=64),
       seed=st.integers(min_value=0, max_value=500))
def test_property_activation_count_bounded(num_tokens, seed):
    """|activated experts| is between 1 and min(tokens*top_k, num_experts)."""
    gen = TraceGenerator(CONFIG, seed=seed)
    activation = gen.block_activation(num_tokens)
    assert 1 <= len(activation) <= min(num_tokens * CONFIG.top_k, CONFIG.num_experts)
