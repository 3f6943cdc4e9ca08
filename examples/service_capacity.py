"""Service capacity planning: offered load vs latency on both appliances.

Sweeps the offered request rate of an OPT-66B service (Poisson arrivals
over a sampled token-length mix) against the Fig. 11 appliances — the
8-instance CXL-PNM appliance (DP=8) and the single-instance 8-GPU
appliance (TP=8) — and reports p50/p95 latency and sustained throughput
at each operating point.  The crossover the numbers show: the GPU
appliance is the lower-latency machine at light load; the CXL-PNM
appliance absorbs ~50% more offered load before its queue blows up.

Run:  python examples/service_capacity.py
"""

from repro.accelerator import CXLPNMDevice
from repro.appliance import RequestScheduler, timer_service
from repro.gpu import A100_40G
from repro.llm import OPT_66B, sampled_workload, steady_arrivals
from repro.perf.analytical import GpuPerfModel, PnmPerfModel

NUM_REQUESTS = 40
RATES = (0.02, 0.05, 0.10, 0.20, 0.40)


def sweep(label, service, instances):
    print(f"--- {label} ({instances} instance(s)) ---")
    print(f"{'rate req/s':>11} {'p50 s':>8} {'p95 s':>8} "
          f"{'mean wait s':>12} {'tok/s':>8} {'util':>6}")
    requests = sampled_workload(NUM_REQUESTS, seed=42, mean_output=128,
                                max_total=1024)
    scheduler = RequestScheduler(service, num_instances=instances)
    for rate in RATES:
        arrivals = steady_arrivals(NUM_REQUESTS, rate, seed=7)
        stats = scheduler.run(requests, arrivals)
        print(f"{rate:11.2f} {stats.p50_latency_s:8.1f} "
              f"{stats.p95_latency_s:8.1f} {stats.mean_queue_wait_s:12.1f} "
              f"{stats.throughput_tokens_per_s:8.1f} "
              f"{stats.instance_utilization:6.2f}")
    print()


def main() -> None:
    pnm_service = timer_service(OPT_66B, PnmPerfModel(CXLPNMDevice()))
    gpu_service = timer_service(OPT_66B, GpuPerfModel(A100_40G),
                                tensor_parallel=8)
    sweep("CXL-PNM appliance, DP=8", pnm_service, instances=8)
    sweep("GPU appliance, TP=8", gpu_service, instances=1)
    print("reading: at light load the TP=8 GPU appliance finishes each "
          "request sooner;\nas the offered rate approaches one appliance's "
          "service rate, queue wait explodes\nfirst on the machine with "
          "less aggregate throughput.")


if __name__ == "__main__":
    main()
