"""Functional tensor parallelism: sharded devices == reference model.

The strongest appliance-level correctness property: a model sharded
Megatron-style across 2 or 4 simulated CXL-PNM devices — with the host
broadcasting activations and reducing partials through real CXL.mem
transactions — generates the same tokens as the single-device reference.
"""

import pytest

from repro.analysis.verifier import verify_program
from repro.errors import ConfigurationError, ParallelismError
from repro.llm import ReferenceModel, random_weights, tiny_config
from repro.runtime.tensor_parallel import TensorParallelSession


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_config()
    weights = random_weights(cfg, seed=51)
    return weights, ReferenceModel(weights)


class TestEquivalence:
    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_tokens_match_reference(self, setup, degree):
        weights, reference = setup
        session = TensorParallelSession(weights, degree=degree)
        prompt = [3, 14, 15]
        assert session.generate(prompt, 6) == reference.generate(prompt, 6)

    def test_different_seed_and_prompt(self):
        cfg = tiny_config(num_heads=8, d_model=64)
        weights = random_weights(cfg, seed=99)
        reference = ReferenceModel(weights)
        session = TensorParallelSession(weights, degree=2)
        prompt = [200, 100]
        assert session.generate(prompt, 5) == reference.generate(prompt, 5)

    def test_single_token_prompt(self, setup):
        weights, reference = setup
        session = TensorParallelSession(weights, degree=2)
        assert session.generate([42], 3) == reference.generate([42], 3)


class TestOrchestration:
    def test_host_traffic_scales_with_degree(self, setup):
        weights, _ = setup
        two = TensorParallelSession(weights, degree=2)
        four = TensorParallelSession(weights, degree=4)
        two.generate([1, 2], 2)
        four.generate([1, 2], 2)
        assert four.host_cxl_writes == 2 * two.host_cxl_writes
        assert four.host_cxl_reads == 2 * two.host_cxl_reads

    def test_every_device_served_requests(self, setup):
        weights, _ = setup
        session = TensorParallelSession(weights, degree=4)
        session.generate([1, 2, 3], 2)
        from repro.cxl import Source
        for shard in session.devices:
            assert shard.cxl.counters.reads[Source.HOST] > 0
            assert shard.cxl.counters.writes[Source.HOST] > 0
            assert shard.driver.launches > 0

    def test_kv_context_tracked(self, setup):
        weights, _ = setup
        session = TensorParallelSession(weights, degree=2)
        session.generate([1, 2, 3], 4)
        assert session.context_len == 3 + 3  # prompt + fed-back tokens

    def test_shard_programs_verify_clean(self, setup):
        weights, _ = setup
        session = TensorParallelSession(weights, degree=2)
        reports = []
        for shard in session.devices:
            def program(code, _shard=shard, _program=shard.driver.program):
                reports.append(verify_program(
                    code, layout=_shard.compiler.layout))
                return _program(code)
            shard.driver.program = program
        session.generate([1, 2, 3], 3)
        # 2 shards x 3 stages x 2 layers x 2 half-layers.
        assert len(reports) == 24
        for report in reports:
            assert report.clean, report.render()

    def test_default_memory_fits_deep_long_model(self):
        cfg = tiny_config(num_layers=16, max_seq_len=2048)
        weights = random_weights(cfg, seed=1)
        session = TensorParallelSession(weights, degree=1)
        prompt = [5, 6, 7]
        assert session.generate(prompt, 3) \
            == ReferenceModel(weights).generate(prompt, 3)

    def test_shard_memory_smaller_than_full_model(self, setup):
        weights, _ = setup
        full = TensorParallelSession(weights, degree=1)
        split = TensorParallelSession(weights, degree=4)
        assert split.devices[0].memory.allocated_bytes \
            < full.devices[0].memory.allocated_bytes


class TestValidation:
    def test_degree_must_divide_heads(self, setup):
        weights, _ = setup
        with pytest.raises(ParallelismError):
            TensorParallelSession(weights, degree=3)

    def test_degree_positive(self, setup):
        weights, _ = setup
        with pytest.raises(ParallelismError):
            TensorParallelSession(weights, degree=0)

    def test_empty_prompt_rejected(self, setup):
        weights, _ = setup
        session = TensorParallelSession(weights, degree=2)
        with pytest.raises(ConfigurationError):
            session.generate([], 3)

    def test_overlong_sequence_rejected(self):
        cfg = tiny_config(max_seq_len=8)
        session = TensorParallelSession(random_weights(cfg, seed=1),
                                        degree=2)
        with pytest.raises(ConfigurationError):
            session.generate([1, 2, 3, 4, 5], 6)

    def test_out_of_vocab_token_rejected(self, setup):
        weights, _ = setup
        session = TensorParallelSession(weights, degree=2)
        with pytest.raises(ConfigurationError):
            session.generate([99999], 2)
