#!/usr/bin/env python
"""Multi-tenant SLO front-end bench: fair share, preemption, shedding.

One pytest-benchmark case times the continuous-batching engine with the
full serving front end engaged — Zipf-skewed tenants in two classes,
flash-crowd arrivals, weighted fair queuing, priority preemption, and
SLO admission — against the same stream with the front end off, so the
overhead of the multi-tenant path is visible in the compare table.

Run as a script, this benchmarks the front end **at cluster scale** —
a sampled-lognormal multi-tenant stream across ``--devices`` replicas —
and writes a JSON record next to the other benchmark results:

    PYTHONPATH=src python benchmarks/bench_slo.py \
        --requests 20000 --devices 8

The record keeps both the wall-clock cost (``wall_s``) and the service
outcome (per-class goodput under SLO and attainment).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.appliance import PnmAppliance, TenantClass, timer_service
from repro.llm import OPT_13B, InferenceRequest
from repro.llm.workload import arrivals_for_shape, multi_tenant_workload
from repro.perf.analytical import BatchStepTimer

RESULTS = Path(__file__).resolve().parent / "results" / "BENCH_slo.json"

_PERF = PnmAppliance().perf_model
CLASS_NAMES = ("interactive", "batch")
SEED = 11


def _classes(step: BatchStepTimer) -> tuple:
    """Interactive outranks batch; targets scale with the step costs."""
    prefill = step.prefill_s(64)
    decode = step.decode_step_s(1, 65)
    return (TenantClass("interactive", weight=3.0, priority=1,
                        ttft_target_s=4.0 * prefill,
                        tbt_target_s=8.0 * decode),
            TenantClass("batch", weight=1.0))


def _stream(num_requests: int, devices: int, seed: int = SEED):
    requests = multi_tenant_workload(
        num_requests, num_tenants=8, class_names=CLASS_NAMES, seed=seed,
        mean_input=64, mean_output=64, max_total=OPT_13B.max_seq_len)
    rate = 3.0 * devices / timer_service(OPT_13B, _PERF)(
        InferenceRequest(64, 64))
    arrivals = arrivals_for_shape("flash-crowd", num_requests, rate,
                                  seed=seed)
    return requests, arrivals


def _serve(requests, arrivals, devices: int, multi_tenant: bool):
    appliance = PnmAppliance(num_devices=devices)
    step = appliance.step_timer(OPT_13B)
    return appliance.serve(
        OPT_13B, requests, arrivals, step=step,
        classes=_classes(step) if multi_tenant else None,
        slo_admission=multi_tenant)


def test_serve_single_class_baseline(benchmark):
    requests, arrivals = _stream(64, devices=2)
    stats = benchmark(_serve, requests, arrivals, 2, False)
    benchmark.extra_info["throughput_tok_s"] = round(
        stats.throughput_tokens_per_s, 1)
    assert not stats.rejected


def test_serve_multi_tenant_slo(benchmark):
    requests, arrivals = _stream(64, devices=2)
    stats = benchmark(_serve, requests, arrivals, 2, True)
    cells = stats.class_breakdown()
    benchmark.extra_info["goodput_tok_s"] = round(
        stats.goodput_tokens_per_s, 1)
    benchmark.extra_info["slo_attainment"] = round(stats.slo_attainment, 3)
    benchmark.extra_info["interactive_attainment"] = round(
        cells["interactive"]["slo_attainment"], 3)
    # Both classes must actually be exercised by the Zipf tenant split.
    assert set(cells) == set(CLASS_NAMES)
    assert stats.goodput_tokens_per_s > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=20_000,
                        help="stream length (default 20000)")
    parser.add_argument("--devices", type=int, default=8,
                        help="model replicas (default 8)")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--out", type=Path, default=RESULTS,
                        help=f"JSON output path (default {RESULTS})")
    parser.add_argument("--max-wall-s", type=float, default=None,
                        help="fail if the scale run exceeds this")
    args = parser.parse_args(argv)

    requests, arrivals = _stream(args.requests, args.devices,
                                 seed=args.seed)
    start = time.perf_counter()
    stats = _serve(requests, arrivals, args.devices, True)
    wall_s = time.perf_counter() - start

    print(f"slo front end: {args.requests} requests x {args.devices} "
          f"devices in {wall_s:.1f} s wall "
          f"({args.requests / wall_s:.0f} req/s simulated, "
          f"{stats.preemptions} preemptions, "
          f"{len(stats.rejected)} rejected, "
          f"goodput {stats.goodput_tokens_per_s:.0f} sim tok/s, "
          f"attainment {stats.slo_attainment:.3f})")

    record = {
        "benchmark": "slo_front_end_serving",
        "model": OPT_13B.name,
        "requests": args.requests,
        "devices": args.devices,
        "arrival_shape": "flash-crowd",
        "tenant_classes": list(CLASS_NAMES),
        "wall_s": wall_s,
        "requests_per_wall_s": args.requests / wall_s,
        "completed": len(stats.completed),
        "rejected": len(stats.rejected),
        "preemptions": stats.preemptions,
        "sim_makespan_s": stats.makespan_s,
        "sim_throughput_tok_s": stats.throughput_tokens_per_s,
        "sim_goodput_tok_s": stats.goodput_tokens_per_s,
        "slo_attainment": stats.slo_attainment,
        "class_breakdown": stats.class_breakdown(),
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
