#!/usr/bin/env python
"""Serving-engine bench: FCFS vs continuous, and event-kernel scale.

Two pytest-benchmark cases keep the original serving-layer comparison
behind the paper's §VII batching discussion: the same overloaded
open-loop OPT-13B stream served by exclusive FCFS dispatch and by the
iteration-level batching engine on one CXL-PNM device.  The headline
numbers (sustained throughput, TTFT) land in ``extra_info``.

Run as a script, this benchmarks the **event-driven kernel at cluster
scale** — a sampled-lognormal OPT-13B workload across ``--devices``
model replicas — and writes a JSON record next to the other benchmark
results:

    PYTHONPATH=src python benchmarks/bench_continuous.py \
        --requests 100000 --devices 8

The record's ``wall_s`` is the wall-clock cost of simulating the whole
stream (the acceptance bar: >=100k requests on >=8 devices in under two
minutes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.appliance import PnmAppliance, RequestScheduler, timer_service
from repro.llm import OPT_13B, InferenceRequest
from repro.llm.workload import sampled_workload, steady_arrivals

RESULTS = Path(__file__).resolve().parent / "results" / \
    "BENCH_continuous.json"

REQUESTS = [InferenceRequest(64, 64, request_id=i) for i in range(24)]
RATE_PER_S = 2.0  # ~4x one exclusive CXL-PNM instance's capacity
ARRIVALS = steady_arrivals(len(REQUESTS), RATE_PER_S, seed=3)

_PNM = PnmAppliance(num_devices=1)
_PERF = _PNM.perf_model


def test_serve_fcfs_exclusive(benchmark):
    scheduler = RequestScheduler(
        timer_service(OPT_13B, _PERF), num_instances=1, config=OPT_13B,
        memory_bytes=_PNM.memory_bytes)
    stats = benchmark(scheduler.run, REQUESTS, ARRIVALS)
    benchmark.extra_info["throughput_tok_s"] = round(
        stats.throughput_tokens_per_s, 1)
    benchmark.extra_info["p95_latency_s"] = round(stats.p95_latency_s, 1)
    assert stats.throughput_tokens_per_s > 0


def test_serve_continuous_batching(benchmark):
    stats = benchmark(_PNM.serve, OPT_13B, REQUESTS, ARRIVALS)
    benchmark.extra_info["throughput_tok_s"] = round(
        stats.throughput_tokens_per_s, 1)
    benchmark.extra_info["mean_ttft_s"] = round(stats.mean_ttft_s, 3)
    benchmark.extra_info["max_occupancy"] = stats.max_occupancy
    # The point of the engine: strictly more sustained throughput than
    # FCFS-exclusive on the identical arrival process.
    fcfs = RequestScheduler(
        timer_service(OPT_13B, _PERF), num_instances=1,
        config=OPT_13B, memory_bytes=_PNM.memory_bytes
    ).run(REQUESTS, ARRIVALS)
    assert stats.throughput_tokens_per_s > fcfs.throughput_tokens_per_s


def _serve(requests, arrivals, devices, max_batch):
    """One timed run; returns (wall_seconds, stats)."""
    appliance = PnmAppliance(num_devices=devices)
    start = time.perf_counter()
    stats = appliance.serve(OPT_13B, requests, arrivals,
                            max_batch=max_batch)
    return time.perf_counter() - start, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=100_000,
                        help="stream length (default 100000)")
    parser.add_argument("--devices", type=int, default=8,
                        help="model replicas (default 8)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="per-device batch cap (default 64)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=RESULTS,
                        help=f"JSON output path (default {RESULTS})")
    parser.add_argument("--max-wall-s", type=float, default=None,
                        help="fail if the scale run exceeds this")
    args = parser.parse_args(argv)

    requests = sampled_workload(args.requests, seed=args.seed,
                                max_total=OPT_13B.max_seq_len)
    # Saturating open-loop load: ~4x the whole cluster's
    # exclusive-dispatch capacity on the mean request shape.
    service = timer_service(OPT_13B, _PERF)
    rate = 4.0 * args.devices / service(InferenceRequest(64, 256))
    arrivals = steady_arrivals(len(requests), rate, seed=args.seed)

    wall_s, stats = _serve(requests, arrivals, args.devices,
                           args.max_batch)
    tokens = sum(c.request.total_tokens for c in stats.completed)
    print(f"event kernel: {args.requests} requests x {args.devices} "
          f"devices in {wall_s:.1f} s wall "
          f"({args.requests / wall_s:.0f} req/s simulated, "
          f"{stats.num_iterations} decode iterations, "
          f"sim makespan {stats.makespan_s:.0f} s, "
          f"{stats.throughput_tokens_per_s:.0f} sim tok/s)")

    record = {
        "benchmark": "event_kernel_serving",
        "model": OPT_13B.name,
        "requests": args.requests,
        "devices": args.devices,
        "max_batch": args.max_batch,
        "arrival_rate_req_s": rate,
        "wall_s": wall_s,
        "requests_per_wall_s": args.requests / wall_s,
        "completed": len(stats.completed),
        "num_iterations": stats.num_iterations,
        "sim_makespan_s": stats.makespan_s,
        "sim_throughput_tok_s": stats.throughput_tokens_per_s,
        "sim_tokens": tokens,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.max_wall_s is not None and wall_s > args.max_wall_s:
        print(f"FAIL: wall {wall_s:.1f} s above required "
              f"{args.max_wall_s:.1f} s")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
