"""Appliance-level composition: N devices serving one LLM.

Builds the end-to-end configurations of Fig. 11 and Table III: a GPU
appliance (DGX-style, tensor parallelism across all devices) and CXL-PNM
appliances at any DP x MP split, and evaluates latency, throughput, and
energy per configuration via the analytical performance models.
:meth:`Appliance.serve` is the one continuous-batching entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

from repro.accelerator.device import CXLPNMDevice
from repro.appliance.comm import CxlCommModel, GpuCommModel
from repro.appliance.continuous import (
    BatchStepModel,
    ContinuousBatchScheduler,
    ContinuousBatchStats,
    TenantClass,
)
from repro.appliance.parallelism import ParallelismPlan, params_per_device
from repro.errors import ConfigurationError, ParallelismError
from repro.gpu.device import GPUSpec
from repro.llm.config import LLMConfig
from repro.llm.kvcache import peak_kv_bytes
from repro.llm.workload import InferenceRequest
from repro.perf.analytical import (
    BatchStepTimer,
    CommModel,
    DevicePerfModel,
    GpuPerfModel,
    InferenceTimer,
    PnmPerfModel,
    no_comm,
)
from repro.perf.metrics import ApplianceResult


class Appliance:
    """``num_devices`` identical devices serving one LLM.

    The shared body of :class:`GpuAppliance` and :class:`PnmAppliance`.
    A subclass supplies only its device facts: ``perf_model``,
    ``memory_bytes`` and ``unit_price_usd`` (one device each, as
    properties), ``result_prefix`` and :meth:`comm_model`.  This class
    owns what follows from them: single-request runs, the analytical
    step timer with its int8 pricing, and continuous-batching service.
    """

    num_devices: int
    perf_model: DevicePerfModel
    memory_bytes: int
    unit_price_usd: float
    #: Prefix of :meth:`run` result names ("GPU DP=1 x TP=8").
    result_prefix: ClassVar[str]

    def comm_model(self, config: LLMConfig, tensor_parallel: int
                   ) -> CommModel:
        """Per-step communication of a ``tensor_parallel`` > 1 group."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        return f"{self.num_devices}x{self.perf_model.name}"

    @property
    def hardware_cost_usd(self) -> float:
        return self.num_devices * self.unit_price_usd

    def run(self, config: LLMConfig, plan: ParallelismPlan, input_len: int,
            output_len: int) -> ApplianceResult:
        """Evaluate one request under a DP x TP plan."""
        tp = plan.tensor_parallel
        plan.validate_for(config, self.num_devices, self.memory_bytes,
                          kv_reserve_bytes=peak_kv_bytes(
                              config, input_len, output_len) // tp)
        comm = self.comm_model(config, tp) if tp > 1 else no_comm
        timer = InferenceTimer(config=config, model=self.perf_model,
                               tensor_parallel=tp, comm=comm)
        return ApplianceResult(name=f"{self.result_prefix} {plan.label}",
                               num_devices=self.num_devices,
                               instances=plan.data_parallel,
                               per_request=timer.run(input_len, output_len))

    def step_timer(self, config: LLMConfig,
                   quantize: Optional[str] = None) -> BatchStepTimer:
        """Analytical continuous-batching step costs on one device.

        ``quantize="int8"`` prices the halved weight stream through a
        1-byte-element copy of ``config``; admission budgets stay on the
        unquantized config (KV caches keep their full width).
        """
        if quantize not in (None, "int8"):
            raise ConfigurationError(
                f"unknown quantize mode {quantize!r} "
                f"(expected None or 'int8')")
        priced = config.with_dtype(1) if quantize else config
        return BatchStepTimer(priced, self.perf_model)

    def serve(self, config: LLMConfig, requests: Sequence[InferenceRequest],
              arrival_times: Optional[Sequence[float]] = None, *,
              step: Optional[BatchStepModel] = None,
              memory_bytes: Optional[int] = None,
              max_batch: Optional[int] = None,
              classes: Optional[Sequence[TenantClass]] = None,
              slo_admission: bool = False,
              metrics=None) -> ContinuousBatchStats:
        """Serve a request stream with continuous batching, one model
        replica per device (appliance-level DP).

        Runs a :class:`~repro.appliance.continuous.
        ContinuousBatchScheduler` over ``num_devices`` independent
        replica timelines.  ``step`` overrides the default
        :meth:`step_timer` with any
        :class:`~repro.appliance.continuous.BatchStepModel` (e.g. the
        instruction-level
        :func:`~repro.appliance.continuous.simulated_step_model`);
        ``memory_bytes`` overrides the per-device budget; ``classes``
        and ``slo_admission`` configure the multi-tenant front end;
        ``metrics`` overrides the ambient registry.
        """
        if step is None:
            step = self.step_timer(config)
        if memory_bytes is None:
            memory_bytes = self.memory_bytes
        scheduler = ContinuousBatchScheduler(
            step, config, memory_bytes, max_batch=max_batch,
            num_devices=self.num_devices, classes=classes,
            slo_admission=slo_admission, metrics=metrics)
        return scheduler.run(requests, arrival_times)


@dataclass(frozen=True)
class GpuAppliance(Appliance):
    """A DGX-style appliance of ``num_devices`` identical GPUs."""

    spec: GPUSpec
    num_devices: int = 8
    result_prefix: ClassVar[str] = "GPU"

    @property
    def perf_model(self) -> GpuPerfModel:
        return GpuPerfModel(self.spec)

    @property
    def memory_bytes(self) -> int:
        return self.spec.memory_bytes

    @property
    def unit_price_usd(self) -> float:
        return self.spec.price_usd

    def comm_model(self, config: LLMConfig, tensor_parallel: int
                   ) -> GpuCommModel:
        return GpuCommModel(self.spec, config, tensor_parallel)


@dataclass(frozen=True)
class PnmAppliance(Appliance):
    """An appliance of ``num_devices`` CXL-PNM cards."""

    device: CXLPNMDevice = field(default_factory=CXLPNMDevice)
    num_devices: int = 8
    result_prefix: ClassVar[str] = "CXL-PNM"

    @property
    def perf_model(self) -> PnmPerfModel:
        return PnmPerfModel(self.device)

    @property
    def memory_bytes(self) -> int:
        return self.device.memory_capacity

    @property
    def unit_price_usd(self) -> float:
        return self.device.price_usd

    def comm_model(self, config: LLMConfig, tensor_parallel: int
                   ) -> CxlCommModel:
        return CxlCommModel(config, tensor_parallel, self.device.link)


def devices_required(config: LLMConfig, device_memory_bytes: int,
                     kv_reserve_bytes: int = 0) -> int:
    """Minimum tensor-parallel devices for a model to fit (§IX analysis)."""
    if device_memory_bytes <= kv_reserve_bytes:
        raise ParallelismError("device memory below the KV reserve")
    for tp in range(1, 4097):
        if params_per_device(config, tp) + kv_reserve_bytes \
                <= device_memory_bytes:
            return tp
    raise ParallelismError(
        f"{config.name} does not fit even at tensor_parallel=4096")
