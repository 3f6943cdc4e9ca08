"""FCFS-exclusive vs continuous batching under open-loop Poisson load.

The paper's §VII batching discussion (via its ref [10]) argues that
batched generation turns the bandwidth-bound GEMV weight term into
small-batch GEMM.  This experiment measures what that is worth at the
*service* level: the same OPT-13B request stream is offered, at an
arrival rate past the single-stream capacity, to

* the FCFS scheduler serving each request on an exclusive instance, and
* the continuous-batching engine re-forming the batch every decode step
  under KV admission control,

on both the CXL-PNM and A100 device models.  A third scenario starves
the KV budget on purpose to show admission control binding: occupancy
never exceeds ``max_batch_for_memory`` and the latency tail absorbs the
queueing instead.

On the device models the two platforms split: the A100 streams weights
once per step, so decode cost is nearly batch-invariant and throughput
scales with occupancy; the CXL-PNM's 64-row PE array makes small-batch
GEMM cost near-linear until the array fills, so its win is real but
bounded — the DFX-lineage trade-off the paper discusses.

Run with ``repro run continuous-batching --trace-out trace.json`` for
per-iteration batch spans and per-request slot timelines.
"""

from __future__ import annotations

from typing import List, Optional

from repro.appliance.cluster import Appliance, GpuAppliance, PnmAppliance
from repro.appliance.continuous import ContinuousBatchStats
from repro.appliance.scheduler import (
    RequestScheduler,
    ServiceStats,
    timer_service,
)
from repro.experiments.report import ExperimentResult
from repro.gpu import A100_40G
from repro.llm.batching import max_batch_for_memory
from repro.llm.config import OPT_13B
from repro.llm.kvcache import peak_kv_bytes
from repro.llm.workload import (
    PAPER_INPUT_TOKENS,
    InferenceRequest,
    steady_arrivals,
)
from repro.tco.energy import daily_weight_traffic_bytes

MODEL = OPT_13B
NUM_REQUESTS = 32
OUTPUT_TOKENS = 64
#: Offered load relative to one exclusive instance's capacity; > 1 means
#: FCFS-exclusive saturates and its queue grows without bound.
OVERLOAD_FACTOR = 4.0
#: KV budget of the starved scenario, in concurrent requests.
STARVED_BATCH = 4
ARRIVAL_SEED = 0


def _workload() -> List[InferenceRequest]:
    return [InferenceRequest(PAPER_INPUT_TOKENS, OUTPUT_TOKENS,
                             request_id=i)
            for i in range(NUM_REQUESTS)]


def compare_device(appliance: Appliance,
                   memory_bytes: Optional[int] = None,
                   max_batch: Optional[int] = None
                   ) -> "tuple[ServiceStats, ContinuousBatchStats, float]":
    """Run both schedulers on a one-device ``appliance`` (its own
    memory unless ``memory_bytes`` is given); returns (fcfs, continuous,
    rate)."""
    requests = _workload()
    service = timer_service(MODEL, appliance.perf_model)
    rate = OVERLOAD_FACTOR / service(requests[0])
    arrivals = steady_arrivals(NUM_REQUESTS, rate, seed=ARRIVAL_SEED)
    memory = appliance.memory_bytes if memory_bytes is None \
        else memory_bytes
    fcfs = RequestScheduler(service, num_instances=1, config=MODEL,
                            memory_bytes=memory).run(requests, arrivals)
    continuous = appliance.serve(MODEL, requests, arrivals,
                                 memory_bytes=memory, max_batch=max_batch)
    return fcfs, continuous, rate


def run() -> ExperimentResult:
    pnm = PnmAppliance(num_devices=1)
    total_ctx = PAPER_INPUT_TOKENS + OUTPUT_TOKENS
    rows: List[dict] = []
    for appliance in (pnm, GpuAppliance(A100_40G, num_devices=1)):
        name = appliance.perf_model.name
        fcfs, cont, rate = compare_device(appliance)
        kv_cap = max_batch_for_memory(MODEL, appliance.memory_bytes,
                                      total_ctx)
        rows.append({
            "scenario": f"{name} throughput (tok/s), fcfs vs continuous",
            "fcfs": fcfs.throughput_tokens_per_s,
            "continuous": cont.throughput_tokens_per_s,
            "extra": cont.throughput_tokens_per_s
            / fcfs.throughput_tokens_per_s,
        })
        rows.append({
            "scenario": f"{name} mean latency (s), fcfs vs continuous",
            "fcfs": fcfs.mean_latency_s,
            "continuous": cont.mean_latency_s,
            "extra": rate,
        })
        rows.append({
            "scenario": f"{name} continuous TTFT / TBT (s)",
            "fcfs": float("nan"),
            "continuous": cont.mean_ttft_s,
            "extra": cont.mean_tbt_s,
        })
        rows.append({
            "scenario": f"{name} peak occupancy / KV batch cap",
            "fcfs": float(fcfs.num_instances),
            "continuous": float(cont.max_occupancy),
            "extra": float(kv_cap),
        })

    # Admission control binding: KV room for only STARVED_BATCH requests.
    starved_memory = MODEL.param_bytes + STARVED_BATCH * peak_kv_bytes(
        MODEL, PAPER_INPUT_TOKENS, OUTPUT_TOKENS)
    _fcfs, starved, _rate = compare_device(pnm, starved_memory)
    rows.append({
        "scenario": "CXL-PNM starved KV: peak occupancy / admission cap",
        "fcfs": float("nan"),
        "continuous": float(starved.max_occupancy),
        "extra": float(max_batch_for_memory(MODEL, starved_memory,
                                            total_ctx)),
    })

    # Quantization ablation: the same stream served with fp16-modeled
    # weights ('fcfs' column) and with the int8 weight path
    # ('continuous' column).  Decode steps are bandwidth-bound, so the
    # halved weight stream lifts service throughput; admission budgets
    # stay on the unquantized config (KV caches keep full width).
    requests = _workload()
    service = timer_service(MODEL, pnm.perf_model)
    rate = OVERLOAD_FACTOR / service(requests[0])
    arrivals = steady_arrivals(NUM_REQUESTS, 4 * rate, seed=ARRIVAL_SEED)
    pnm_x4 = PnmAppliance(num_devices=4)
    fp16, int8 = (pnm_x4.serve(MODEL, requests, arrivals,
                               step=pnm_x4.step_timer(MODEL, quantize))
                  for quantize in (None, "int8"))
    rows.append({
        "scenario": "CXL-PNM x4 throughput (tok/s), fp16 vs int8",
        "fcfs": fp16.throughput_tokens_per_s,
        "continuous": int8.throughput_tokens_per_s,
        "extra": int8.throughput_tokens_per_s
        / fp16.throughput_tokens_per_s,
    })
    rows.append({
        "scenario": "CXL-PNM x4 mean TBT (s), fp16 vs int8",
        "fcfs": fp16.mean_tbt_s,
        "continuous": int8.mean_tbt_s,
        "extra": fp16.mean_tbt_s / int8.mean_tbt_s,
    })
    # TCO view of the same ablation: daily tokens at each operating
    # point and the parameter-stream traffic funding them (element size
    # is the only difference — tco.energy.daily_weight_traffic_bytes is
    # shared by both dtypes).
    fp16_tokens_day = fp16.throughput_tokens_per_s * 86_400.0
    int8_tokens_day = int8.throughput_tokens_per_s * 86_400.0
    rows.append({
        "scenario": "CXL-PNM x4 TCO: tokens/day (M), fp16 vs int8",
        "fcfs": fp16_tokens_day / 1e6,
        "continuous": int8_tokens_day / 1e6,
        "extra": int8_tokens_day / fp16_tokens_day,
    })
    fp16_traffic = daily_weight_traffic_bytes(fp16_tokens_day,
                                              MODEL.num_params,
                                              elem_bytes=2)
    int8_traffic = daily_weight_traffic_bytes(int8_tokens_day,
                                              MODEL.num_params,
                                              elem_bytes=1)
    rows.append({
        "scenario": "CXL-PNM x4 TCO: weight stream (PB/day), fp16 vs int8",
        "fcfs": fp16_traffic / 1e15,
        "continuous": int8_traffic / 1e15,
        "extra": int8_traffic / fp16_traffic,
    })
    return ExperimentResult(
        experiment_id="continuous-batching",
        title=f"{MODEL.name} continuous batching vs FCFS-exclusive at "
              f"{OVERLOAD_FACTOR:.0f}x single-stream load",
        rows=rows,
        columns=["scenario", "fcfs", "continuous", "extra"],
        notes=[
            "Open-loop Poisson arrivals (fixed seed) at "
            f"{OVERLOAD_FACTOR:.0f}x one exclusive instance's capacity; "
            "identical arrival times feed both schedulers per device.",
            "Throughput 'extra' column is the continuous/fcfs speedup; "
            "latency 'extra' is the offered rate (req/s).",
            "The A100 streams weights once per decode step, so its "
            "speedup tracks occupancy; the CXL-PNM's 64-row PE array "
            "charges small-batch GEMM near-linearly until it fills.",
            "The starved-KV row shows admission control binding: "
            "occupancy stops at the KV budget, never beyond it.",
            "Quantization rows serve the same 4-replica stream with "
            "fp16-modeled weights ('fcfs' column) and the int8 weight "
            "path ('continuous' column): decode is bandwidth-bound, so "
            "halving the weight stream lifts throughput and daily "
            "tokens while moving half the parameter bytes per token "
            "('extra' is the int8/fp16 ratio).",
        ],
    )
