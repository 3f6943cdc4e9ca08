"""Service-level bench: request scheduling over both appliances.

Not a paper figure — an operations view of Fig. 11's appliances: the same
open-loop Poisson workload offered to the 8-instance CXL-PNM appliance
(DP=8) and the single-instance GPU appliance (TP=8), reporting latency
percentiles and sustained throughput.
"""

from repro.accelerator import CXLPNMDevice
from repro.appliance.scheduler import (
    RequestScheduler,
    timer_service,
)
from repro.gpu import A100_40G
from repro.llm import OPT_66B, sampled_workload, steady_arrivals
from repro.perf.analytical import GpuPerfModel, PnmPerfModel

REQUESTS = sampled_workload(24, seed=11, mean_output=128, max_total=1024)
ARRIVALS = steady_arrivals(len(REQUESTS), rate_per_s=0.2, seed=3)


def _run_service(service, instances):
    scheduler = RequestScheduler(service, num_instances=instances)
    return scheduler.run(REQUESTS, ARRIVALS)


def test_service_pnm_dp8(benchmark):
    service = timer_service(OPT_66B, PnmPerfModel(CXLPNMDevice()))
    stats = benchmark(_run_service, service, 8)
    benchmark.extra_info["p95_latency_s"] = round(stats.p95_latency_s, 1)
    benchmark.extra_info["throughput_tok_s"] = round(
        stats.throughput_tokens_per_s, 1)
    assert stats.throughput_tokens_per_s > 0


def test_service_gpu_tp8(benchmark):
    service = timer_service(OPT_66B, GpuPerfModel(A100_40G),
                            tensor_parallel=8)
    stats = benchmark(_run_service, service, 1)
    benchmark.extra_info["p95_latency_s"] = round(stats.p95_latency_s, 1)
    benchmark.extra_info["throughput_tok_s"] = round(
        stats.throughput_tokens_per_s, 1)
    assert stats.throughput_tokens_per_s > 0
