"""One cold run of one workload, in this process; prints one JSON line.

Started by ``run.py`` as a fresh single-threaded process, so every
process-global cache starts empty and the peak resident memory is this
run's own.  The clock starts before ``repro`` or numpy is imported:
``setup_s`` covers those imports, input generation and the construction
of timers and engine, and ``wall_s`` covers the timed phase alone.  A
``SpeedProbe`` samples the host's speed through both phases.

With ``--traced`` the layers' entry points record spans (see
``spans.py``); the spans are written to ``--out-dir`` when the run ends.
"""

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
from speed import SpeedProbe


def layer_metrics(rec: spans.SpanRecorder, stats, timed_s: float
                  ) -> dict:
    """The per-layer metrics of a traced run, from its spans and stats."""
    selfs = rec.self_times()
    m = {}
    for name, skip in (("perf.decode_steps", False),
                       ("perf.decode_step", True),
                       ("perf.prefill", False),
                       ("accelerator.compile", False),
                       ("perf.simulator", False)):
        calls, secs = rec.total(name, skip_nested=skip)
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = secs
    m["perf.op_time.calls"] = rec.counts["perf.op_time.calls"]
    m["accelerator.program_instrs"] = rec.counts["accelerator.program_instrs"]
    requested = rec.points_requested
    m["perf.unique_points"] = len(rec.points)
    m["perf.reuse_ratio"] = 1.0 - len(rec.points) / requested \
        if requested else 0.0
    m["llm.workload_s"] = selfs.get("llm.workload", (0, 0.0, 0.0))[2]
    m["appliance.run_s"] = rec.total("appliance.run")[1]
    m["appliance.self_s"] = selfs.get("appliance.run", (0, 0.0, 0.0))[2]
    m["traced_wall_s"] = timed_s
    if stats is None:  # step-grid runs no scheduler
        m.update(dict.fromkeys((
            "appliance.decode_iterations", "appliance.steps_per_pricing_call",
            "appliance.admitted", "appliance.shed", "appliance.preemptions",
            "appliance.max_occupancy"), 0))
        return m
    pricing_calls = rec.total("perf.decode_steps", under="appliance.run")[0]
    pricing_calls += rec.total("perf.decode_step", under="appliance.run",
                               skip_nested=True)[0]
    m["appliance.decode_iterations"] = stats.num_iterations
    m["appliance.steps_per_pricing_call"] = stats.num_iterations \
        / pricing_calls if pricing_calls else 0.0
    m["appliance.admitted"] = len(stats.completed)
    m["appliance.shed"] = len(stats.rejected)
    m["appliance.preemptions"] = stats.preemptions
    m["appliance.max_occupancy"] = stats.max_occupancy
    return m


def run(args) -> dict:
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        rec = spans.SpanRecorder() if args.traced else None
        setup_span = rec.open("bench.setup") if rec else None
        import numpy
        import workloads
        workload = workloads.WORKLOADS[args.workload]
        if rec:
            spans.install(rec)
        state = workload.setup(args.seed)
        setup_end = time.perf_counter()
        if rec:
            rec.close(setup_span)
            timed_span = rec.open("bench.timed")
        start = time.perf_counter()
        out = workload.run(state)
        end = time.perf_counter()
        if rec:
            rec.close(timed_span)
    wall_s = end - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "wall_s": wall_s, "setup_s": setup_end - t0,
        "speed_timed": probe.speed(start, end),
        "speed_setup": probe.speed(t0, setup_end),
        "peak_rss_mb": peak_rss_mb, "sizes": workload.sizes,
        "numpy": numpy.__version__, "traced": bool(rec),
        "step_model_err_max": None,
    }
    failures = [f"the speed probe took no sample during {phase}"
                for phase in ("setup", "timed")
                if math.isnan(result[f"speed_{phase}"])]
    if rec:
        # Layer metrics and spans cover set-up and the timed phase only;
        # the checks below call the layers again.
        stats = out if hasattr(out, "num_iterations") else None
        result["layers"] = layer_metrics(rec, stats, wall_s)
        result["self_times"] = rec.self_times()
        roots = sum(e - s for _name, s, e, p in rec.spans if p < 0)
        accounted = sum(row[2] for row in result["self_times"].values())
        if abs(accounted - roots) > 1e-6 * roots:
            failures.append(f"span self times sum to {accounted} s, "
                            f"traced wall is {roots} s")
        rec.write(str(Path(args.out_dir)
                      / f"{args.workload}-seed{args.seed}-spans.json"))
    failures += workload.check(state, out)
    result["digest"] = workload.digest(out)
    result["sim"] = workload.stats(out)
    if args.deep_check:
        deep_failures, err = workload.deep_check(
            state, out, Path(args.out_dir), f"{args.workload}-{args.seed}")
        failures += deep_failures
        result["step_model_err_max"] = err
    result["failures"] = failures
    result["ok"] = not failures
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--deep-check", action="store_true")
    args = parser.parse_args()
    try:
        result = run(args)
    except Exception:  # boundary: report the failure to the parent
        result = {"ok": False, "failures": [traceback.format_exc()]}
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
