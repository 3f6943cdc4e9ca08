"""The benchmark's workloads: inputs from a seed, one timed phase, checks.

Each workload is OPT-13B on the paper's CXL-PNM device.  ``setup`` builds
the inputs and the objects a user's ``repro serve`` would build; ``run``
is the timed phase; ``check`` holds for any correct model and is cheap
enough for every run; ``deep_check`` re-runs or re-prices to check
invariants that need a second pass, and is run once per benchmark run.

Workloads read layer entry points through their modules
(``llm_workload.sampled_workload``), so the span wrappers a traced run
installs see every call.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.accelerator import CXLPNMDevice
from repro.appliance import (
    ContinuousBatchScheduler,
    TenantClass,
    simulated_step_model,
    timer_service,
)
from repro.llm import OPT_13B, InferenceRequest
from repro.llm import workload as llm_workload
from repro.obs.metrics import MetricsRegistry
from repro.perf.analytical import BatchStepTimer, PnmPerfModel

MODEL = OPT_13B
DEVICES = 8
SERVE_REQUESTS = 20_000
STEADY_MAX_BATCH = 64
GRID_BATCHES = (1, 2, 4, 8, 16, 32, 64)
GRID_CONTEXTS = (65, 577, 1025)
#: (batch, context) decode points where a serving run's step model is
#: compared with the instruction-level one.
SERVE_ERR_POINTS = tuple((b, 577) for b in GRID_BATCHES)
GRID_PREFILLS = (64, 256)
#: Offsets added to each grid context for the vectorized-vs-scalar check;
#: all stay within the context's 32-token quantum, so they re-use prices.
GRID_VECTOR_OFFSETS = (0, 7, 31)


def _hash(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _rel_err(sim: float, analytical: float) -> float:
    return abs(sim - analytical) / analytical


# -- serving workloads -------------------------------------------------


@dataclass
class ServeState:
    requests: List[InferenceRequest]
    arrivals: List[float]
    step: BatchStepTimer
    make_engine: Callable[..., ContinuousBatchScheduler]
    engine: ContinuousBatchScheduler = field(init=False)

    def __post_init__(self) -> None:
        self.engine = self.make_engine(self.step)


def serve_digest(stats) -> str:
    """Hash of every simulated output of a serving run."""
    rows: List[Any] = []
    for c in sorted(stats.completed, key=lambda c: c.request.request_id):
        rows.append(("done", c.request.request_id, c.arrival_s, c.start_s,
                     c.first_token_s, c.finish_s, c.failovers,
                     c.preemptions))
    for r in sorted(stats.rejected, key=lambda r: r.request.request_id):
        rows.append(("shed", r.request.request_id, r.arrival_s, r.reason))
    rows.extend(sorted(stats.as_dict().items()))
    rows.extend(sorted((k, sorted(v.items()))
                       for k, v in stats.class_breakdown().items()))
    return _hash(rows)


def serve_stats(stats) -> Dict[str, Any]:
    """The simulated serving statistics: outputs, not gated metrics."""
    sent = len(stats.completed) + len(stats.rejected)
    out = {k: stats.as_dict()[k] for k in (
        "makespan_s", "throughput_tokens_per_s", "goodput_tokens_per_s",
        "slo_attainment", "mean_ttft_s", "p95_ttft_s", "mean_tbt_s",
        "num_iterations", "max_occupancy", "preemptions")}
    out["completed"] = len(stats.completed)
    out["shed"] = len(stats.rejected)
    out["shed_share"] = len(stats.rejected) / sent if sent else 0.0
    out["classes"] = stats.class_breakdown()
    return out


def check_serve(state: ServeState, stats) -> List[str]:
    """Invariants of any correct serving run."""
    failures = []
    sent = sorted(r.request_id for r in state.requests)
    ended = sorted([c.request.request_id for c in stats.completed]
                   + [r.request.request_id for r in stats.rejected])
    if ended != sent:
        failures.append(
            f"requests do not end exactly once: {len(sent)} sent, "
            f"{len(stats.completed)} completed + {len(stats.rejected)} "
            f"rejected, {len(set(ended))} distinct ids")
    if any(not r.reason for r in stats.rejected):
        failures.append("a rejected request has no reason")
    for c in stats.completed:
        if not (c.arrival_s <= c.start_s <= c.first_token_s <= c.finish_s):
            failures.append(
                f"request {c.request.request_id} timeline out of order: "
                f"arrive {c.arrival_s} start {c.start_s} first token "
                f"{c.first_token_s} finish {c.finish_s}")
            break
    return failures


def deep_check_serve(state: ServeState, stats, out_dir: Path,
                     tag: str) -> Tuple[List[str], float]:
    """Replay, token-conservation and step-model-agreement checks.

    The run is replayed from a ``write_trace``/``read_trace`` round trip
    with a metrics registry attached, and must reproduce the timed run's
    digest.  The registry's token counters then give the tokens
    generated.  Returns the failures and the largest relative
    disagreement of the run's analytical step model with the
    instruction-level one over ``SERVE_ERR_POINTS``: fixed points, so
    the figure moves with the step models and not with where a
    scheduler change moves the run.
    """
    failures = []
    path = out_dir / f"{tag}-replay.jsonl"
    llm_workload.write_trace(str(path), state.requests, state.arrivals)
    try:
        requests, arrivals = llm_workload.read_trace(str(path))
    finally:
        path.unlink()
    registry = MetricsRegistry()
    replay = state.make_engine(state.step, metrics=registry).run(
        requests, arrivals)
    if serve_digest(replay) != serve_digest(stats):
        failures.append("trace replay (metrics on) differs from the timed "
                        "run")
    generated = registry.counter("scheduler.prefills").value \
        + registry.counter("scheduler.decode_steps").value
    requested = sum(c.request.output_len for c in stats.completed)
    restarted = stats.preemptions or stats.failovers
    if generated < requested or (not restarted and generated != requested):
        failures.append(f"generated {generated:.0f} tokens for "
                        f"{requested} requested output tokens")
    sim = simulated_step_model(MODEL)
    err = max(_rel_err(sim.decode_step_s(b, ctx),
                       state.step.decode_step_s(b, ctx))
              for b, ctx in SERVE_ERR_POINTS)
    return failures, err


def setup_steady(seed: int) -> ServeState:
    """The bench_continuous scale stream at a saturating steady rate."""
    device = CXLPNMDevice()
    perf = PnmPerfModel(device)
    requests = llm_workload.sampled_workload(
        SERVE_REQUESTS, seed=seed, max_total=MODEL.max_seq_len)
    rate = 4.0 * DEVICES / timer_service(MODEL, perf)(
        InferenceRequest(64, 256))
    arrivals = llm_workload.steady_arrivals(SERVE_REQUESTS, rate, seed=seed)

    def make_engine(step, metrics=None):
        return ContinuousBatchScheduler(
            step, MODEL, device.memory_capacity, max_batch=STEADY_MAX_BATCH,
            num_devices=DEVICES, metrics=metrics)

    return ServeState(requests, arrivals, BatchStepTimer(MODEL, perf),
                      make_engine)


def setup_tenants(seed: int) -> ServeState:
    """The bench_slo stream: flash crowd, Zipf tenants, SLO admission."""
    device = CXLPNMDevice()
    perf = PnmPerfModel(device)
    requests = llm_workload.multi_tenant_workload(
        SERVE_REQUESTS, num_tenants=8, class_names=("interactive", "batch"),
        seed=seed, mean_input=64, mean_output=64,
        max_total=MODEL.max_seq_len)
    rate = 3.0 * DEVICES / timer_service(MODEL, perf)(
        InferenceRequest(64, 64))
    arrivals = llm_workload.arrivals_for_shape(
        "flash-crowd", SERVE_REQUESTS, rate, seed=seed)
    step = BatchStepTimer(MODEL, perf)
    classes = (TenantClass("interactive", weight=3.0, priority=1,
                           ttft_target_s=4.0 * step.prefill_s(64),
                           tbt_target_s=8.0 * step.decode_step_s(1, 65)),
               TenantClass("batch", weight=1.0))

    def make_engine(step, metrics=None):
        return ContinuousBatchScheduler(
            step, MODEL, device.memory_capacity, num_devices=DEVICES,
            classes=classes, slo_admission=True, metrics=metrics)

    return ServeState(requests, arrivals, step, make_engine)


# -- step-grid ---------------------------------------------------------


@dataclass
class GridState:
    timers: Dict[str, Tuple[Any, Any]]
    order: List[Tuple[str, str, int, int]]
    prices: Dict[Tuple[str, str, int, int], Tuple[float, float]] = field(
        default_factory=dict)


def setup_grid(seed: int) -> GridState:
    """Both step models cold, fp16 and int8, in a seed-shuffled order.

    The analytical int8 timer takes a quantized config copy and the
    instruction-level one ``quantize="int8"``, as ``repro serve --dtype
    int8`` builds them.
    """
    device = CXLPNMDevice()
    perf = PnmPerfModel(device)
    timers = {
        "fp16": (BatchStepTimer(MODEL, perf),
                 simulated_step_model(MODEL, device=device)),
        "int8": (BatchStepTimer(MODEL.with_dtype(1), perf),
                 simulated_step_model(MODEL, device=device,
                                      quantize="int8")),
    }
    order = [(dtype, "decode", b, ctx) for dtype in timers
             for b in GRID_BATCHES for ctx in GRID_CONTEXTS]
    order += [(dtype, "prefill", n, 0) for dtype in timers
              for n in GRID_PREFILLS]
    random.Random(seed).shuffle(order)
    return GridState(timers, order)


def run_grid(state: GridState) -> GridState:
    for key in state.order:
        dtype, kind, n, ctx = key
        analytical, sim = state.timers[dtype]
        if kind == "decode":
            state.prices[key] = (analytical.decode_step_s(n, ctx),
                                 sim.decode_step_s(n, ctx))
        else:
            state.prices[key] = (analytical.prefill_s(n), sim.prefill_s(n))
    return state


def check_grid(state: GridState, _out) -> List[str]:
    failures = []
    for key, pair in state.prices.items():
        if not all(math.isfinite(p) and p > 0 for p in pair):
            failures.append(f"price not finite and positive at {key}: "
                            f"{pair}")
    ctxs = [c + d for c in GRID_CONTEXTS for d in GRID_VECTOR_OFFSETS]
    for dtype, pair in state.timers.items():
        for timer in pair:
            for b in GRID_BATCHES:
                vector = timer.decode_steps_s(b, ctxs)
                scalar = [timer.decode_step_s(b, c) for c in ctxs]
                if list(vector) != scalar:
                    failures.append(
                        f"{type(timer).__name__} {dtype} batch {b}: "
                        f"decode_steps_s differs from decode_step_s")
    return failures


def deep_check_grid(state: GridState, _out, _out_dir: Path, _tag: str
                    ) -> Tuple[List[str], float]:
    """No second pass is needed: the grid's disagreement is its prices'."""
    return [], max(_rel_err(sim, an) for an, sim in state.prices.values())


def grid_digest(state: GridState) -> str:
    return _hash(sorted(state.prices.items()))


def grid_stats(state: GridState) -> Dict[str, Any]:
    """sim / analytical price ratio per dtype and batch at context 577."""
    return {f"{dtype}.b{b}.sim_over_analytical":
            state.prices[(dtype, "decode", b, 577)][1]
            / state.prices[(dtype, "decode", b, 577)][0]
            for dtype in state.timers for b in GRID_BATCHES}


# -- registry ----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    sizes: Dict[str, Any]
    setup: Callable[[int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], List[str]]
    digest: Callable[[Any], str]
    stats: Callable[[Any], Dict[str, Any]]
    #: (state, output, out_dir, tag) -> (failures, step_model_err_max)
    deep_check: Callable[..., Tuple[List[str], float]]


def _serve(setup: Callable, sizes: Dict[str, Any]) -> Workload:
    return Workload(
        sizes=sizes, setup=setup,
        run=lambda state: state.engine.run(state.requests, state.arrivals),
        check=check_serve, digest=serve_digest, stats=serve_stats,
        deep_check=deep_check_serve)


WORKLOADS: Dict[str, Workload] = {
    "serve-steady": _serve(setup_steady, {
        "model": MODEL.name, "requests": SERVE_REQUESTS,
        "devices": DEVICES, "max_batch": STEADY_MAX_BATCH,
        "arrivals": "steady 4x capacity"}),
    "serve-tenants": _serve(setup_tenants, {
        "model": MODEL.name, "requests": SERVE_REQUESTS,
        "devices": DEVICES, "tenants": 8,
        "arrivals": "flash-crowd 3x capacity"}),
    "step-grid": Workload(
        sizes={"model": MODEL.name, "batches": list(GRID_BATCHES),
               "contexts": list(GRID_CONTEXTS),
               "prefills": list(GRID_PREFILLS), "dtypes": ["fp16", "int8"]},
        setup=setup_grid, run=run_grid, check=check_grid,
        digest=grid_digest, stats=grid_stats, deep_check=deep_check_grid),
}
