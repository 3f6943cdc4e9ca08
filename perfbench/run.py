#!/usr/bin/env python3
"""Cold-process benchmark of the serving simulator and its step pricing.

    python3 perfbench/run.py --workload serve-steady --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  Each workload runs as a series of fresh,
single-threaded child processes (``child.py``) for about ``--seconds``
seconds, at least two; every child is one cold run, so process-global
caches start empty as they do for a user's ``repro serve``.  The first
child also runs the deep checks (``workloads.py``).

``--trace 0`` reports the end-to-end metrics, each a median over the
children: ``wall_s`` (the timed phase), ``setup_s`` (imports, inputs,
timers and engine), ``peak_rss_mb`` (peak resident memory of the child)
and ``step_model_err_max`` (the analytical and instruction-level step
models' largest relative disagreement).  The two times are in reference
seconds: host seconds times the host's speed during the phase, which a
``speed.SpeedProbe`` samples in place, so the tens-of-percent swings of
a shared host cancel; each child's host seconds and speeds are printed
too.  ``--trace 1`` runs untraced and traced children in pairs and
reports the per-layer metrics of the traced ones, in host seconds, plus
``trace_overhead_s``, the traced minus the untraced host wall.

The simulated outputs and their ``sim_digest`` are printed as outputs,
not gated: a change that only speeds the simulator up must leave the
digest of each seed unchanged.  Spans of the traced run are written to
``.bench_out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a check
that fails counts its run as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("serve-steady", "serve-tenants", "step-grid")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "step_model_err_max": "ratio"}
PER_LAYER = {
    "perf.decode_steps.calls": "count", "perf.decode_steps.s": "s",
    "perf.decode_step.calls": "count", "perf.decode_step.s": "s",
    "perf.op_time.calls": "count", "perf.unique_points": "count",
    "perf.reuse_ratio": "ratio",
    "perf.prefill.calls": "count", "perf.prefill.s": "s",
    "accelerator.compile.calls": "count", "accelerator.compile.s": "s",
    "accelerator.program_instrs": "count",
    "perf.simulator.calls": "count", "perf.simulator.s": "s",
    "appliance.run_s": "s", "appliance.self_s": "s",
    "appliance.decode_iterations": "count",
    "appliance.steps_per_pricing_call": "ratio",
    "appliance.admitted": "count", "appliance.shed": "count",
    "appliance.preemptions": "count", "appliance.max_occupancy": "count",
    "llm.workload_s": "s", "trace_overhead_s": "s",
}
#: Thread pools of numpy's BLAS and of OpenMP are pinned to one thread.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
#: Every run must end within this many seconds.
DEADLINE_S = 165.0
MIN_CHILDREN = 2


def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int, children: List[dict]) -> dict:
    """Where the numbers came from: code, interpreter, machine, inputs."""
    commit, dirty = "unknown", "unknown"
    if _git("rev-parse", "--show-toplevel") == str(ROOT):
        commit = _git("rev-parse", "HEAD") or "unknown"
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    first = next((c for c in children if "sizes" in c), {})
    return {
        "commit": commit, "dirty": dirty, "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": first.get("numpy", "unknown"),
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed, "sizes": first.get("sizes"),
        "child_env": THREAD_ENV,
    }


def run_child(workload: str, seed: int, traced: bool, deep: bool,
              timeout_s: float) -> dict:
    """One cold run in a fresh process; its JSON record, or a failure."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", str(OUT_DIR)]
    cmd += ["--traced"] if traced else []
    cmd += ["--deep-check"] if deep else []
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": [
            f"child exceeded {timeout_s:.0f} s and was stopped"]}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"ok": False, "failures": [
            f"child exited {proc.returncode} without a result: "
            f"{proc.stderr.strip()[-2000:]}"]}
    record["exit_code"] = proc.returncode
    if proc.returncode != 0:
        record["ok"] = False
    return record


def run_children(workload: str, seed: int, seconds: int, trace: bool
                 ) -> List[dict]:
    """Cold runs back to back while the next one fits in ``seconds``.

    At least ``MIN_CHILDREN`` run.  The first one also runs the deep
    checks.  With ``trace`` they come in pairs, an untraced run and then
    a traced one.
    """
    start = time.perf_counter()
    children: List[dict] = []
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(children) >= MIN_CHILDREN and elapsed + last > seconds:
            break
        if elapsed + 1.5 * last > DEADLINE_S:
            break
        t = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            children.append(run_child(
                workload, seed, traced, deep=not children,
                timeout_s=DEADLINE_S - (time.perf_counter() - start)))
            if not children[-1].get("ok"):
                return children
        last = time.perf_counter() - t
    return children


def aggregate(children: List[dict], trace: bool) -> Dict[str, float]:
    """The reported metrics: medians over the children that measured."""
    plain = [c for c in children if "wall_s" in c and not c["traced"]]
    traced = [c for c in children if "wall_s" in c and c["traced"]]
    if not plain or (trace and not traced):
        return {}
    if not trace:
        errs = [c["step_model_err_max"] for c in plain
                if c["step_model_err_max"] is not None]
        if not errs:
            return {}
        return {
            "wall_s": statistics.median(
                c["speed_timed"] * c["wall_s"] for c in plain),
            "setup_s": statistics.median(
                c["speed_setup"] * c["setup_s"] for c in plain),
            "peak_rss_mb": statistics.median(
                c["peak_rss_mb"] for c in plain),
            "step_model_err_max": errs[0],
        }
    out = {name: statistics.median(c["layers"][name] for c in traced)
           for name in PER_LAYER if name != "trace_overhead_s"}
    out["trace_overhead_s"] = statistics.median(
        c["layers"]["traced_wall_s"] for c in traced) \
        - statistics.median(c["wall_s"] for c in plain)
    return out


def consistency_failures(children: List[dict]) -> List[str]:
    """Every run of one seed must simulate the same outputs."""
    digests = {c["digest"] for c in children if "digest" in c}
    if len(digests) > 1:
        return [f"sim_digest differs between runs of one seed: "
                f"{sorted(digests)}"]
    return []


def report(workload: str, children: List[dict], metrics: Dict[str, float],
           units: Dict[str, str], prov: dict) -> None:
    """Human-readable summary, then the full record as one JSON line."""
    print(f"workload {workload}: {len(children)} cold runs")
    for c in children:
        if "wall_s" in c:
            kind = "traced" if c["traced"] else "untraced"
            print(f"  {kind:<8} host wall_s {c['wall_s']:.4f} at speed "
                  f"{c['speed_timed']:.3f}, host setup_s {c['setup_s']:.4f} "
                  f"at speed {c['speed_setup']:.3f}, peak_rss_mb "
                  f"{c['peak_rss_mb']:.1f}, sim_digest {c.get('digest')}")
        for failure in c.get("failures", []):
            print(f"  FAILED: {failure}")
    sim = next((c["sim"] for c in children if "sim" in c), {})
    digest = next((c["digest"] for c in children if "digest" in c), None)
    print(f"simulated outputs (sim_digest {digest}):")
    for key, value in sim.items():
        if not isinstance(value, dict):
            print(f"  {key:<36} {value}")
    selfs = next((c["self_times"] for c in children
                  if c.get("self_times")), None)
    if selfs:
        wall = sum(row[1] for name, row in selfs.items()
                   if name.startswith("bench."))
        print(f"self time by layer (first traced run, traced wall "
              f"{wall:.3f} s; bench.* is benchmark overhead and imports):")
        for name, (calls, incl, own) in sorted(
                selfs.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:<22} calls {calls:>8}  incl {incl:9.4f} s  "
                  f"self {own:9.4f} s  {100 * own / wall:5.1f}%")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    print(json.dumps({"workload": workload, "sim_digest": digest,
                      "sim": sim, "provenance": prov,
                      "children": [{k: v for k, v in c.items() if k != "sim"}
                                   for c in children]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # Byte-compile once up front so no timed child pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src"), str(HERE)], check=True,
                   stdout=subprocess.DEVNULL)
    trace = bool(args.trace)
    children = run_children(args.workload, args.seed, args.seconds, trace)
    failures = consistency_failures(children)
    metrics = aggregate(children, trace)
    units = PER_LAYER if trace else END_TO_END
    report(args.workload, children, metrics, units,
           provenance(args.seed, children))
    for failure in failures:
        print(f"FAILED: {failure}")
    if not metrics:
        print("error: no run produced metrics", file=sys.stderr)
        return 1
    failed = sum(1 for c in children if not c.get("ok"))
    if failures:
        failed = max(failed, 1)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
