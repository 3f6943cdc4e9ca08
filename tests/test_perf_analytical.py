"""Analytical performance model: rooflines, integration, energy."""

import pickle

import pytest

from repro.accelerator import CXLPNMDevice
from repro.accelerator.device import AcceleratorSpec
from repro.errors import ConfigurationError
from repro.gpu import A100_40G
from repro.llm import OPT_13B, OPT_1_3B, OPT_30B, tiny_config
from repro.llm.batching import batched_gen_stage_ops, batched_gen_stage_parts
from repro.llm.graph import (
    StageShape,
    decoder_layer_ops,
    embedding_ops,
    lm_head_ops,
    sum_stage_ops,
)
from repro.llm.ops import matmul_op, vector_op, OpKind
from repro.perf.analytical import (
    BatchStepTimer,
    GpuPerfModel,
    InferenceTimer,
    PnmPerfModel,
    no_comm,
    stage_result,
)
from repro.perf.metrics import relative_delta


@pytest.fixture(scope="module")
def pnm():
    return PnmPerfModel(CXLPNMDevice())


@pytest.fixture(scope="module")
def gpu():
    return GpuPerfModel(A100_40G)


class TestPnmOpModel:
    def test_gemv_is_bandwidth_bound(self, pnm):
        op = matmul_op("v", m=1, n=5120, k=5120, dtype_bytes=2)
        t = pnm.op_time(op)
        mem_time = op.total_bytes / pnm.device.effective_memory_bandwidth
        assert t == pytest.approx(mem_time, rel=0.15)

    def test_wide_gemm_is_compute_bound(self, pnm):
        op = matmul_op("g", m=2048, n=5120, k=5120, dtype_bytes=2)
        t = pnm.op_time(op)
        compute_time = op.flops / pnm.device.spec.peak_gemm_flops
        assert t == pytest.approx(compute_time, rel=0.2)

    def test_vector_op_cheap(self, pnm):
        op = vector_op("ln", OpKind.LAYERNORM, elements=5120, dtype_bytes=2)
        assert pnm.op_time(op) < 1e-4

    def test_embedding_uses_dma(self, pnm):
        op = embedding_ops(tiny_config(),
                           StageShape(batch_tokens=4, context_len=4))[0]
        assert pnm.op_time(op) > 0


class TestStageResult:
    def test_energy_positive_and_consistent(self, pnm):
        ops = [matmul_op("g", m=64, n=512, k=512, dtype_bytes=2)]
        result = stage_result("s", ops, pnm)
        assert result.energy_j > 0
        assert result.energy_j / result.time_s \
            <= pnm.device.spec.platform_max_watts

    def test_comm_included_in_time(self, pnm):
        ops = [matmul_op("g", m=64, n=512, k=512, dtype_bytes=2)]
        base = stage_result("s", ops, pnm)
        with_comm = stage_result("s", ops, pnm, comm_s=1e-3)
        assert with_comm.time_s == pytest.approx(base.time_s + 1e-3)


class TestInferenceTimer:
    def test_sampled_integration_matches_exact(self, pnm):
        timer = InferenceTimer(OPT_1_3B, pnm, gen_samples=12)
        approx = timer.run(16, 96)
        exact = timer.run(16, 96, exact=True)
        assert approx.gen_time_s == pytest.approx(exact.gen_time_s,
                                                  rel=0.01)
        assert approx.energy_j == pytest.approx(exact.energy_j, rel=0.01)

    def test_latency_monotone_in_output_tokens(self, pnm):
        timer = InferenceTimer(OPT_1_3B, pnm)
        latencies = [timer.run(64, n).latency_s for n in (1, 32, 256)]
        assert latencies == sorted(latencies)

    def test_tensor_parallel_speeds_up_gen(self, pnm):
        full = InferenceTimer(OPT_13B, pnm).gen_stage(512).time_s
        split = InferenceTimer(OPT_13B, pnm,
                               tensor_parallel=4).gen_stage(512).time_s
        assert split < full / 2

    def test_tp_energy_covers_group(self, pnm):
        single = InferenceTimer(OPT_13B, pnm).run(16, 8, exact=True)
        group = InferenceTimer(OPT_13B, pnm, tensor_parallel=4).run(
            16, 8, exact=True)
        # 4 devices each ~1/4 of the work: group energy stays comparable
        # (within 3x) of single-device energy, not 4x smaller.
        assert group.energy_j > single.energy_j / 3

    def test_comm_model_applied_per_stage(self, pnm):
        flat = InferenceTimer(OPT_1_3B, pnm).run(16, 8, exact=True)
        slow = InferenceTimer(OPT_1_3B, pnm,
                              comm=lambda tokens: 1e-3).run(16, 8,
                                                            exact=True)
        assert slow.latency_s == pytest.approx(flat.latency_s + 8e-3,
                                               rel=0.05)

    def test_invalid_parameters_rejected(self, pnm):
        with pytest.raises(ConfigurationError):
            InferenceTimer(OPT_1_3B, pnm, tensor_parallel=0)
        with pytest.raises(ConfigurationError):
            InferenceTimer(OPT_1_3B, pnm, gen_samples=1)
        with pytest.raises(ConfigurationError):
            InferenceTimer(OPT_1_3B, pnm).run(0, 8)


class TestMetricsDerivation:
    def test_inference_result_derived_metrics(self, gpu):
        result = InferenceTimer(OPT_1_3B, gpu).run(64, 128)
        assert result.latency_s == pytest.approx(
            result.sum_time_s + result.gen_time_s)
        assert result.tokens_per_s == pytest.approx(
            128 / result.latency_s)
        assert result.mean_power_w == pytest.approx(
            result.energy_j / result.latency_s)
        assert result.ms_per_token == pytest.approx(
            1e3 * result.latency_s / 128)

    def test_relative_delta(self):
        assert relative_delta(110, 100) == pytest.approx(0.1)
        with pytest.raises(ConfigurationError):
            relative_delta(1, 0)


class TestLayerOncePricing:
    """``BatchStepTimer`` prices one decoder layer and repeats it; its
    prices must equal the flat per-op sum exactly, not approximately."""

    BATCHES = (1, 2, 3, 8, 17, 64)
    CONTEXTS = (1, 65, 577, 1025)
    PREFILLS = (1, 65, 577, 1025)

    @staticmethod
    def _cases():
        dfx = CXLPNMDevice(spec=AcceleratorSpec(num_pes=0))
        return {
            "opt13b-fp16": (OPT_13B, PnmPerfModel(CXLPNMDevice()), 1,
                            no_comm),
            "opt13b-int8": (OPT_13B.with_dtype(1),
                            PnmPerfModel(CXLPNMDevice()), 1, no_comm),
            "opt30b-tp2": (OPT_30B, PnmPerfModel(CXLPNMDevice()), 2,
                           lambda tokens: 3e-6 + 1e-9 * tokens),
            "dfx-tree-only": (OPT_13B, PnmPerfModel(dfx), 1, no_comm),
            "a100": (OPT_13B, GpuPerfModel(A100_40G), 1, no_comm),
        }

    @pytest.mark.parametrize("case", ["opt13b-fp16", "opt13b-int8",
                                      "opt30b-tp2", "dfx-tree-only",
                                      "a100"])
    def test_prices_equal_flat_sum(self, case):
        config, model, tp, comm = self._cases()[case]
        timer = BatchStepTimer(config, model, tensor_parallel=tp,
                               comm=comm, context_quantum=1)
        for b in self.BATCHES:
            for ctx in self.CONTEXTS:
                ops = batched_gen_stage_ops(config, ctx, b, tp)
                flat = sum(model.op_time(op) for op in ops) + comm(b)
                assert timer.decode_step_s(b, ctx) == flat, (b, ctx)
        for n in self.PREFILLS:
            ops = sum_stage_ops(config, n, tp)
            flat = sum(model.op_time(op) for op in ops) + comm(n)
            assert timer.prefill_s(n) == flat, n

    def test_composed_stages_match_hand_built_layers(self):
        cfg = OPT_13B
        assert cfg.num_layers == 40
        shape = StageShape(batch_tokens=7, context_len=7)
        hand = embedding_ops(cfg, shape)
        for i in range(40):
            hand.extend(decoder_layer_ops(cfg, shape,
                                          layer_name=f"layer{i}"))
        hand.extend(lm_head_ops(cfg, shape))
        assert sum_stage_ops(cfg, 7) == hand

        batched = batched_gen_stage_ops(cfg, 577, 8)
        parts = batched_gen_stage_parts(cfg, 577, 8)
        hand = list(parts.embed)
        step = StageShape(batch_tokens=1, context_len=577, sequences=8)
        for i in range(40):
            hand.extend(decoder_layer_ops(cfg, step,
                                          layer_name=f"layer{i}"))
        hand.extend(parts.head)
        assert batched == hand

    def test_model_value_semantics_survive_hoisting(self):
        a = PnmPerfModel(CXLPNMDevice())
        b = PnmPerfModel(CXLPNMDevice())
        assert a == b and hash(a) == hash(b)
        assert PnmPerfModel(CXLPNMDevice(
            spec=AcceleratorSpec(num_pes=0))) != a
        op = matmul_op("q", m=8, n=5120, k=5120, dtype_bytes=2)
        for model in (a, GpuPerfModel(A100_40G)):
            clone = pickle.loads(pickle.dumps(model))
            assert clone == model
            assert clone.op_time(op) == model.op_time(op)
