"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments`` — list the reproduction harnesses.
* ``run <id> [...]`` — run experiments and print their tables
  (``--export DIR`` also writes JSON/CSV).
* ``models`` — the LLM zoo with capacity/bandwidth footprints.
* ``platform`` — the CXL-PNM platform summary (Tables I/II headline).
* ``estimate <model> [--in N] [--out N] [--dtype fp32|int8]`` —
  single-device latency/energy for a zoo model on CXL-PNM and an A100.
* ``serve <model> [--device pnm|gpu] [--devices N] [--dtype fp32|int8]
  [--arrival steady|diurnal|flash-crowd] [--trace-file F]
  [--save-trace F] [--tenants N] [--class NAME:W[:PRIO[:TTFT[:TBT]]]]
  [--slo] [--compare-fcfs]`` — open-loop serving simulation on the
  event-driven continuous-batching engine (KV admission control,
  TTFT/TBT percentiles).  ``--arrival`` picks the traffic shape,
  ``--trace-file`` replays a JSONL trace instead of generating one,
  ``--save-trace`` records the generated workload for bit-identical
  replay, ``--tenants``/``--class`` configure Zipf-skewed tenants and
  priority classes (weighted fair share + preemption), ``--slo`` turns
  on SLO-aware admission so the per-class goodput report reflects shed
  load, and ``--compare-fcfs`` adds the FCFS-exclusive baseline.
  ``--devices`` replicates the model for appliance DP and ``--dtype
  int8`` prices decode steps on the quantized weight path (halved
  weight-stream bytes).  See docs/SERVING.md for the operator's guide.
* ``chaos [--crc-rate R] [--fail AT:DEV] ...`` — fault-injection run
  (``repro.faults``): generation, CXL readback, and multi-device
  serving under a seeded fault schedule, reporting corrected /
  uncorrected / retried / failed-over counts.  With no fault flags it
  runs the default §IX schedule.
* ``isa`` — the accelerator's generated ISA reference.
* ``lint [--root DIR] [--select purity,units,det,con] [--baseline F |
  --no-baseline] [--json] [--errors-only]`` — run the source-tree
  static-analysis suite (:mod:`repro.analysis.suite`): simulation
  purity (PUR3xx), unit discipline (UNIT4xx), determinism (DET5xx),
  and the ``as_dict`` key-set contract checker (CON6xx), honoring the
  checked-in suppression baseline.  Exit codes match
  ``lint-program``: 0 clean, 2 diagnostics (or stale baseline
  entries), 1 tool failure.
* ``lint-program <model>|tiny [--batch-tokens N] [--ctx-prev N]
  [--batched B] [--json]`` — compile a timing program for the given
  geometry and run the :mod:`repro.analysis` static verifier over it.
  Exit code 0 when the report is clean, 2 when it has diagnostics
  (``--errors-only`` counts only errors), 1 when the tool itself fails.
* ``roofline <model>`` — roofline placement of a zoo model's stages on
  CXL-PNM and the A100.
* ``generate [--layers N ...] [--dtype fp32|int8]`` — run a miniature
  model functionally through the full simulated stack and print the
  tokens (``--dtype int8`` runs the per-channel-quantized weight path).
* ``trace summarize <file>`` — top spans of an exported trace by
  cumulative simulated time.

``run``, ``serve``, and ``generate`` accept ``--trace-out FILE`` and
``--metrics-out FILE``: they install a process-wide tracer/registry
(:func:`repro.obs.observe`) for the command, then export a Chrome-trace
JSON (load it in ``chrome://tracing`` or https://ui.perfetto.dev) and a
flat metrics dump.  Observability never changes the numbers printed.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, List, Optional

from repro.core import CxlPnmPlatform
from repro.errors import ConfigurationError, ReproError
from repro.gpu import A100_40G
from repro.llm import MODEL_ZOO, get_model, random_weights, tiny_config
from repro.perf.analytical import GpuPerfModel, InferenceTimer
from repro.units import GB, GiB, GIGA, TB, s_to_us


@contextlib.contextmanager
def _observability(args) -> Iterator[None]:
    """Install an ambient tracer/registry when export flags ask for it."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        yield
        return
    for path in (trace_out, metrics_out):
        if not path:
            continue
        # Fail before the (possibly long) run, not after it.
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ConfigurationError(
                f"output directory does not exist: {parent}")
    from repro.obs import observe, write_chrome_trace, write_metrics_json
    with observe() as (tracer, metrics):
        yield
    if trace_out:
        write_chrome_trace(tracer, trace_out)
        print(f"wrote {len(tracer.spans)} spans "
              f"({', '.join(tracer.categories())}) to {trace_out}")
    if metrics_out:
        write_metrics_json(metrics, metrics_out)
        print(f"wrote metrics to {metrics_out}")


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="export a Chrome-trace JSON of the run")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="export a JSON metrics dump of the run")


def _cmd_experiments(_args) -> int:
    from repro.experiments.registry import EXPERIMENTS
    for key in EXPERIMENTS:
        print(key)
    return 0


def _cmd_run(args) -> int:
    from repro.experiments.registry import EXPERIMENTS
    from repro.experiments.sweep import run_sweep
    ids = args.ids or list(EXPERIMENTS)
    results = run_sweep(ids, jobs=args.jobs or None)
    for result in results:
        print(result.render())
        print()
    if args.export:
        from repro.experiments.export import export_all
        written = export_all(results, args.export)
        print(f"exported {len(written)} files to {args.export}")
    return 0


def _cmd_models(_args) -> int:
    print(f"{'model':<22} {'params':>9} {'FP16 GiB':>9} "
          f"{'bw@200ms TB/s':>14}")
    for name, config in sorted(MODEL_ZOO.items(),
                               key=lambda kv: kv[1].num_params):
        from repro.experiments.fig02_capacity_bandwidth import (
            required_bandwidth,
        )
        ctx = min(2048, config.max_seq_len)
        print(f"{name:<22} {config.num_params / GIGA:8.1f}B "
              f"{config.param_bytes / GiB:9.1f} "
              f"{required_bandwidth(config, ctx) / TB:14.3f}")
    return 0


def _cmd_platform(_args) -> int:
    report = CxlPnmPlatform().report()
    for key, value in report.as_dict().items():
        print(f"{key:<28} {value:.3f}")
    return 0


def _cmd_estimate(args) -> int:
    config = get_model(args.model)
    if args.dtype == "int8":
        config = config.with_dtype(1)
    platform = CxlPnmPlatform()
    rows = []
    if platform.fits(config):
        rows.append(platform.estimate(config, args.input_tokens,
                                      args.output_tokens))
    else:
        print(f"note: {config.name} exceeds one 512 GB module; "
              "CXL-PNM row omitted")
    rows.append(InferenceTimer(config, GpuPerfModel(A100_40G)).run(
        args.input_tokens, args.output_tokens))
    print(f"{config.name}, {args.input_tokens} in / "
          f"{args.output_tokens} out:")
    for result in rows:
        print(f"  {result.device_name:>10}: {result.latency_s:8.2f} s  "
              f"{result.tokens_per_s:7.2f} tok/s  "
              f"{result.mean_power_w:6.1f} W  "
              f"{result.tokens_per_joule:.4f} tok/J")
    return 0


def _parse_tenant_class(spec: str):
    """``NAME:WEIGHT[:PRIORITY[:TTFT[:TBT]]]`` -> TenantClass.

    Empty trailing fields mean "unset" (e.g. ``premium:4:1::0.05``
    sets a TBT target but no TTFT target).
    """
    from repro.appliance import TenantClass
    parts = spec.split(":")
    if not parts[0] or len(parts) > 5:
        raise ConfigurationError(
            f"--class wants NAME:WEIGHT[:PRIORITY[:TTFT[:TBT]]], "
            f"got {spec!r}")
    def _opt(i, cast):
        return cast(parts[i]) if len(parts) > i and parts[i] else None
    weight = _opt(1, float)
    priority = _opt(2, int)
    return TenantClass(
        name=parts[0],
        weight=1.0 if weight is None else weight,
        priority=0 if priority is None else priority,
        ttft_target_s=_opt(3, float),
        tbt_target_s=_opt(4, float))


def _cmd_serve(args) -> int:
    from repro.appliance import (
        GpuAppliance,
        PnmAppliance,
        RequestScheduler,
        timer_service,
    )
    from repro.llm import (
        DEFAULT_TENANT_CLASS,
        InferenceRequest,
        arrivals_for_shape,
        read_trace,
        write_trace,
        zipf_tenants,
    )
    config = get_model(args.model)
    appliance = PnmAppliance(num_devices=args.devices) \
        if args.device == "pnm" \
        else GpuAppliance(A100_40G, num_devices=args.devices)
    perf = appliance.perf_model
    memory = appliance.memory_bytes if args.memory_gb is None \
        else int(args.memory_gb * GB)
    classes = [_parse_tenant_class(spec) for spec in args.tenant_classes]
    class_names = [tc.name for tc in classes] or [DEFAULT_TENANT_CLASS]
    service = timer_service(config, perf)
    if args.trace_file:
        requests, arrivals = read_trace(args.trace_file)
        source = f"trace {args.trace_file}"
    else:
        tenants = zipf_tenants(args.requests, max(1, args.tenants),
                               skew=args.zipf, seed=args.seed) \
            if args.tenants > 1 else [0] * args.requests
        requests = [InferenceRequest(
            args.input_tokens, args.output_tokens, request_id=i,
            tenant=t, tenant_class=class_names[t % len(class_names)])
            for i, t in enumerate(tenants)]
        rate = args.rate
        if rate is None:
            # Default: overload one exclusive instance 4x, the regime
            # where continuous batching pays off.
            rate = 4.0 / service(requests[0])
        arrivals = arrivals_for_shape(args.arrival, len(requests), rate,
                                      seed=args.seed)
        source = f"{args.arrival} {rate:.3f} req/s"
    if args.save_trace:
        write_trace(args.save_trace, requests, arrivals)
        print(f"trace saved: {args.save_trace} ({len(requests)} records)")
    runs = []
    if args.compare_fcfs:
        fcfs = RequestScheduler(service, num_instances=1, config=config,
                                memory_bytes=memory)
        runs.append(("fcfs-exclusive", fcfs.run(requests, arrivals)))
    quantize = "int8" if args.dtype == "int8" else None
    if args.step_model == "sim":
        if args.device != "pnm":
            print("error: --step-model sim requires --device pnm")
            return 2
        from repro.appliance import simulated_step_model
        step = simulated_step_model(config, device=appliance.device,
                                    quantize=quantize)
    else:
        step = appliance.step_timer(config, quantize)
    stats = appliance.serve(
        config, requests, arrivals, step=step, memory_bytes=memory,
        max_batch=args.max_batch, classes=classes or None,
        slo_admission=args.slo)
    name = "continuous" if args.devices == 1 \
        else f"continuous x{args.devices}"
    runs.append((name, stats))
    print(f"{config.name} on {perf.name}: {len(requests)} requests, "
          f"{source}, memory {memory / GB:.0f} GB")
    for name, run_stats in runs:
        print(f"  [{name}]")
        for key, value in run_stats.as_dict().items():
            print(f"    {key:<24} {value:12.4f}")
    breakdown = stats.class_breakdown()
    if len(breakdown) > 1 or classes:
        for cls_name, row in breakdown.items():
            print(f"  [class {cls_name}]")
            for key, value in row.items():
                print(f"    {key:<24} {value:12.4f}")
    return 0


def _parse_stall(spec: str):
    """``AT:DURATION[:DEVICE]`` -> (at_s, duration_s, device)."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ConfigurationError(
            f"--stall wants AT:DURATION[:DEVICE], got {spec!r}")
    return (float(parts[0]), float(parts[1]),
            int(parts[2]) if len(parts) == 3 else 0)


def _parse_fail(spec: str):
    """``AT[:DEVICE]`` -> (at_s, device)."""
    parts = spec.split(":")
    if len(parts) not in (1, 2):
        raise ConfigurationError(
            f"--fail wants AT[:DEVICE], got {spec!r}")
    return float(parts[0]), int(parts[1]) if len(parts) == 2 else 0


def _cmd_chaos(args) -> int:
    from repro.faults.chaos_harness import ChaosConfig, run_chaos
    from repro.faults.plan import FaultPlan, paper_section_ix_plan
    custom = any((args.crc_rate, args.upsets_per_tick,
                  args.double_bit_at, args.transient_rate,
                  args.fail_at_launch, args.stall, args.fail))
    if custom:
        plan = FaultPlan(seed=args.seed)
        if args.crc_rate:
            plan = plan.with_link_errors(args.crc_rate)
        if args.upsets_per_tick or args.double_bit_at:
            plan = plan.with_memory_upsets(
                args.upsets_per_tick,
                double_bit_at_tick=args.double_bit_at,
                scrub_every_ticks=args.scrub_every)
        if args.transient_rate or args.fail_at_launch:
            plan = plan.with_launch_faults(
                args.transient_rate, fail_at_launch=args.fail_at_launch,
                max_retries=args.max_retries)
        for spec in args.stall:
            at_s, duration_s, device = _parse_stall(spec)
            plan = plan.with_device_stall(at_s, duration_s, device)
        for spec in args.fail:
            at_s, device = _parse_fail(spec)
            plan = plan.with_device_failure(at_s, device)
    else:
        # No fault flags: the default §IX schedule, every mechanism once.
        plan = paper_section_ix_plan(seed=args.seed)
    config = ChaosConfig(model=args.model, num_requests=args.requests,
                         num_devices=args.devices,
                         memory_gb=args.memory_gb,
                         arrival_rate_per_s=args.rate)
    report = run_chaos(plan, config)
    if args.json:
        import json
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def _cmd_isa(_args) -> int:
    from repro.accelerator.isa_reference import render_isa_reference
    print(render_isa_reference())
    return 0


#: ``lint-program`` exit code when the program has diagnostics.  Kept
#: distinct from 1 (tool crash) so CI can assert "found findings" vs
#: "the linter itself broke".
EXIT_DIAGNOSTICS = 2


def _cmd_lint_program(args) -> int:
    from repro.accelerator.compiler import (
        batched_timing_program,
        timing_layout,
        timing_program,
    )
    from repro.analysis import verify_program
    config = tiny_config() if args.model == "tiny" \
        else get_model(args.model)
    quantize = "int8" if args.dtype == "int8" else None
    layout = timing_layout(config, quantize=quantize)
    if args.ctx_prev is None:
        # The service experiment's decode point, clamped to the model:
        # a batched decode step appends one row per request; a plain
        # stage consumes batch_tokens positions.
        occupied = 1 if args.batched is not None else args.batch_tokens
        args.ctx_prev = min(576, config.max_seq_len - occupied)
    dtype_tag = f" dtype={args.dtype}" if args.dtype != "fp32" else ""
    if args.batched is not None:
        program = batched_timing_program(config, batch=args.batched,
                                         ctx_prev=args.ctx_prev,
                                         quantize=quantize)
        subject = (f"{config.name} batched decode batch={args.batched} "
                   f"ctx_prev={args.ctx_prev}{dtype_tag}")
    else:
        program = timing_program(config, batch_tokens=args.batch_tokens,
                                 ctx_prev=args.ctx_prev,
                                 quantize=quantize)
        subject = (f"{config.name} stage m={args.batch_tokens} "
                   f"ctx_prev={args.ctx_prev}{dtype_tag}")
    report = verify_program(program, layout=layout, subject=subject)
    if args.json:
        import json
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    failed = not report.ok if args.errors_only else not report.clean
    return EXIT_DIAGNOSTICS if failed else 0


#: Default suppression baseline, resolved relative to the repo checkout
#: (``tools/`` next to ``src/``).  Absent file -> empty baseline, so an
#: installed package still lints.
def _default_baseline_path() -> Optional["Path"]:
    from pathlib import Path
    candidate = Path(__file__).resolve().parents[2] \
        / "tools" / "static_analysis_baseline.json"
    return candidate if candidate.is_file() else None


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis.baseline import Baseline
    from repro.analysis.suite import render_result, run_suite

    root = args.root
    if root is None:
        root = Path(__file__).resolve().parent
    baseline = None
    if not args.no_baseline:
        path = args.baseline
        if path is None and args.root is None:
            # The checked-in baseline describes this tree only; a
            # foreign --root would render every entry stale.
            path = _default_baseline_path()
        if path is not None:
            baseline = Baseline.load(path)
    passes = None
    if args.select:
        passes = [name for chunk in args.select
                  for name in chunk.split(",") if name.strip()]
    result = run_suite(Path(root), passes=passes, baseline=baseline)
    if args.json:
        import json
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_result(result))
    if args.errors_only:
        failed = not result.report.ok or bool(result.stale)
    else:
        failed = not result.ok
    return EXIT_DIAGNOSTICS if failed else 0


def _cmd_roofline(args) -> int:
    from repro.accelerator import CXLPNMDevice
    from repro.experiments.report import text_table
    from repro.perf.analytical import PnmPerfModel
    from repro.perf.roofline import roofline_report
    config = get_model(args.model)
    models = [PnmPerfModel(CXLPNMDevice()), GpuPerfModel(A100_40G)]
    print(text_table(roofline_report(config, models,
                                     context_len=args.context)))
    return 0


def _cmd_trace_summarize(args) -> int:
    from repro.obs import render_summary, summarize_trace_file
    rows = summarize_trace_file(args.file, top_n=args.top)
    print(render_summary(
        rows, title=f"top {args.top} spans by cumulative simulated time"))
    return 0


def _cmd_generate(args) -> int:
    config = tiny_config(num_layers=args.layers, d_model=args.d_model,
                         num_heads=args.heads)
    platform = CxlPnmPlatform()
    session = platform.session(
        weights=random_weights(config, seed=args.seed),
        quantize="int8" if args.dtype == "int8" else None)
    trace = session.generate(args.prompt, args.num_tokens)
    print(f"prompt {args.prompt} -> {trace.tokens}")
    print(f"{trace.instructions} instructions, device time "
          f"{s_to_us(trace.total_time_s):.1f} us")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CXL-PNM platform reproduction (HPCA 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments",
                   help="list experiment ids").set_defaults(
        func=_cmd_experiments)

    run = sub.add_parser("run", help="run experiments and print tables")
    run.add_argument("ids", nargs="*",
                     help="experiment ids (default: all)")
    run.add_argument("--export", default=None,
                     help="directory for JSON/CSV exports")
    run.add_argument("-j", "--jobs", type=int, default=1,
                     help="worker processes for the sweep "
                          "(default 1 = in-process; 0 picks cpu_count)")
    _add_observability_flags(run)
    run.set_defaults(func=_cmd_run)

    sub.add_parser("models",
                   help="list the LLM zoo").set_defaults(func=_cmd_models)
    sub.add_parser("platform",
                   help="CXL-PNM platform summary").set_defaults(
        func=_cmd_platform)

    estimate = sub.add_parser("estimate",
                              help="model a zoo LLM on both devices")
    estimate.add_argument("model")
    estimate.add_argument("--in", dest="input_tokens", type=int, default=64)
    estimate.add_argument("--out", dest="output_tokens", type=int,
                          default=1024)
    estimate.add_argument("--dtype", choices=["fp32", "int8"],
                          default="fp32",
                          help="weight precision (int8 halves the "
                               "modeled weight stream)")
    estimate.set_defaults(func=_cmd_estimate)

    serve = sub.add_parser(
        "serve",
        help="simulate serving a zoo model on the continuous-batching "
             "engine (multi-tenant traffic, SLO goodput)")
    serve.add_argument("model")
    serve.add_argument("--device", choices=["pnm", "gpu"], default="pnm")
    serve.add_argument("--requests", type=int, default=32)
    serve.add_argument("--rate", type=float, default=None,
                       help="mean arrival rate in req/s "
                            "(default: 4x one instance's capacity)")
    serve.add_argument("--arrival", choices=["steady", "diurnal",
                                             "flash-crowd"],
                       default="steady",
                       help="arrival-process shape (docs/SERVING.md)")
    serve.add_argument("--trace-file", default=None,
                       help="replay a JSONL trace instead of generating "
                            "a workload (ignores --requests/--rate/"
                            "--arrival/--tenants)")
    serve.add_argument("--save-trace", default=None,
                       help="record the generated workload as a JSONL "
                            "trace for bit-identical replay")
    serve.add_argument("--tenants", type=int, default=1,
                       help="number of tenants (Zipf-skewed traffic "
                            "shares when > 1)")
    serve.add_argument("--zipf", type=float, default=1.1,
                       help="Zipf skew of tenant traffic shares")
    serve.add_argument("--class", dest="tenant_classes", action="append",
                       default=[], metavar="SPEC",
                       help="tenant class NAME:WEIGHT[:PRIORITY[:TTFT"
                            "[:TBT]]] (repeatable); tenants map to "
                            "classes round-robin")
    serve.add_argument("--slo", action="store_true",
                       help="SLO-aware admission: shed requests whose "
                            "projected TTFT/TBT miss their class targets")
    serve.add_argument("--compare-fcfs", action="store_true",
                       help="also run the FCFS-exclusive baseline")
    serve.add_argument("--in", dest="input_tokens", type=int, default=64)
    serve.add_argument("--out", dest="output_tokens", type=int, default=64)
    serve.add_argument("--max-batch", type=int, default=None)
    serve.add_argument("--devices", type=int, default=1,
                       help="model replicas for the continuous engine "
                            "(appliance data parallelism)")
    serve.add_argument("--dtype", choices=["fp32", "int8"],
                       default="fp32",
                       help="weight precision for step costs: int8 "
                            "streams quantized weights at 1 byte/elem")
    serve.add_argument("--step-model", choices=["analytical", "sim"],
                       default="analytical",
                       help="continuous-batching step costs: analytical "
                            "per-op sums, or the instruction-level "
                            "simulator (pnm only)")
    serve.add_argument("--memory-gb", type=float, default=None,
                       help="override device memory (GB) to exercise "
                            "KV admission control")
    serve.add_argument("--seed", type=int, default=0)
    _add_observability_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection workload and report RAS behaviour")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--crc-rate", type=float, default=0.0,
                       help="per-flit CXL CRC error probability")
    chaos.add_argument("--upsets-per-tick", type=float, default=0.0,
                       help="mean single-bit upsets per stage against "
                            "the ECC guard region")
    chaos.add_argument("--scrub-every", type=int, default=None,
                       help="ECS scrub period in stages")
    chaos.add_argument("--double-bit-at", type=int, default=None,
                       help="force an uncorrectable error at this stage")
    chaos.add_argument("--transient-rate", type=float, default=0.0,
                       help="per-launch transient fault probability")
    chaos.add_argument("--fail-at-launch", type=int, default=None,
                       help="permanent device failure at launch N")
    chaos.add_argument("--max-retries", type=int, default=3)
    chaos.add_argument("--stall", action="append", default=[],
                       metavar="AT:DURATION[:DEVICE]",
                       help="schedule a transient device stall "
                            "(repeatable)")
    chaos.add_argument("--fail", action="append", default=[],
                       metavar="AT[:DEVICE]",
                       help="schedule a permanent device failure "
                            "(repeatable)")
    chaos.add_argument("--model", default="OPT-13B")
    chaos.add_argument("--requests", type=int, default=12)
    chaos.add_argument("--devices", type=int, default=2)
    chaos.add_argument("--memory-gb", type=float, default=27.0)
    chaos.add_argument("--rate", type=float, default=2.0,
                       help="Poisson arrival rate in req/s")
    chaos.add_argument("--json", action="store_true",
                       help="print the full report as JSON")
    chaos.set_defaults(func=_cmd_chaos)

    sub.add_parser("isa", help="accelerator ISA reference").set_defaults(
        func=_cmd_isa)

    tree_lint = sub.add_parser(
        "lint",
        help="source-tree static analysis (purity/units/determinism/"
             "contracts)")
    tree_lint.add_argument("--root", default=None,
                           help="tree to lint (default: the installed "
                                "repro package)")
    tree_lint.add_argument("--select", action="append", default=[],
                           metavar="PASSES",
                           help="comma-separated passes to run "
                                "(purity, units, determinism, "
                                "contracts; aliases pur/unit/det/con); "
                                "default: all")
    tree_lint.add_argument("--baseline", default=None,
                           help="suppression baseline JSON (default: "
                                "tools/static_analysis_baseline.json "
                                "when present)")
    tree_lint.add_argument("--no-baseline", action="store_true",
                           help="ignore any baseline file")
    tree_lint.add_argument("--json", action="store_true",
                           help="print the report as JSON")
    tree_lint.add_argument("--errors-only", action="store_true",
                           help="exit 2 only on errors (warnings pass)")
    tree_lint.set_defaults(func=_cmd_lint)

    lint = sub.add_parser(
        "lint-program",
        help="statically verify a compiled timing program")
    lint.add_argument("model", help="zoo model name, or 'tiny'")
    lint.add_argument("--batch-tokens", type=int, default=1,
                      help="tokens in the stage (default 1 = gen stage)")
    lint.add_argument("--ctx-prev", type=int, default=None,
                      help="prior context length (default: 576, the "
                           "service experiment's decode point, clamped "
                           "to the model's max_seq_len)")
    lint.add_argument("--batched", type=int, default=None, metavar="B",
                      help="verify the batched decode step for B "
                           "requests instead of a single stage")
    lint.add_argument("--dtype", choices=["fp32", "int8"],
                      default="fp32",
                      help="verify the quantized int8 program instead "
                           "of the fp32 one")
    lint.add_argument("--errors-only", action="store_true",
                      help="exit 2 only on errors (ignore warnings)")
    lint.add_argument("--json", action="store_true",
                      help="print the report as JSON")
    lint.set_defaults(func=_cmd_lint_program)

    roofline = sub.add_parser("roofline",
                              help="roofline placement of a zoo model")
    roofline.add_argument("model")
    roofline.add_argument("--context", type=int, default=576)
    roofline.set_defaults(func=_cmd_roofline)

    generate = sub.add_parser("generate",
                              help="functional generation on a tiny model")
    generate.add_argument("--layers", type=int, default=2)
    generate.add_argument("--d-model", type=int, default=64)
    generate.add_argument("--heads", type=int, default=4)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--num-tokens", type=int, default=8)
    generate.add_argument("--prompt", type=int, nargs="+",
                          default=[1, 2, 3])
    generate.add_argument("--dtype", choices=["fp32", "int8"],
                          default="fp32",
                          help="run the quantized weight path "
                               "functionally")
    _add_observability_flags(generate)
    generate.set_defaults(func=_cmd_generate)

    trace = sub.add_parser("trace", help="inspect exported trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="top spans by cumulative simulated time")
    summarize.add_argument("file", help="Chrome-trace JSON from "
                                        "--trace-out")
    summarize.add_argument("--top", type=int, default=20)
    summarize.set_defaults(func=_cmd_trace_summarize)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _observability(args):
            return args.func(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
