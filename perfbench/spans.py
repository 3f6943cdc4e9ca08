"""In-memory span recorder and the wrappers a traced run installs.

A traced child process patches the public entry points of ``llm``,
``perf``, ``accelerator`` and ``appliance`` at class or module level so
every call records a span (name, start, end, parent span).  Nothing under
``src/`` changes: the wrappers only time and count, then delegate, so the
simulated outputs of a traced run are identical to an untraced one (the
benchmark checks this through ``sim_digest``).

``PnmPerfModel.op_time`` runs hundreds of thousands of times per run, so
it is counted, not spanned.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

class SpanRecorder:
    """Spans kept in memory as ``[name, start, end, parent]`` lists."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: (timer id, batch, quantized context) of each decode point priced.
        self.points: set = set()
        self.points_requested = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span (the caller's layer)."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds).

        A span's self time is its duration minus the durations of its
        direct children, so the self times of all spans sum to the
        durations of the root spans.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, list] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_s[i]
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def total(self, name: str, under: Optional[str] = None,
              skip_nested: bool = False) -> Tuple[int, float]:
        """(calls, seconds) of spans called ``name``.

        ``under`` keeps only spans with an ancestor of that name;
        ``skip_nested`` drops spans whose parent is a perf span (a scalar
        price taken inside a vectorized one).
        """
        calls, secs = 0, 0.0
        for s in self.spans:
            if s[0] != name:
                continue
            if skip_nested and s[3] >= 0 \
                    and self.spans[s[3]][0].startswith("perf."):
                continue
            if under is not None and not self._has_ancestor(s, under):
                continue
            calls += 1
            secs += s[2] - s[1]
        return calls, secs

    def _has_ancestor(self, span: list, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _quantized_context(timer, context_len: int) -> int:
    """The memo key a step timer files a context under.

    Step timers quantize contexts up to ``context_quantum`` but never
    past the model's position budget (see ``BatchStepTimer``).
    """
    q = getattr(timer, "context_quantum", 1)
    cap = max(context_len, timer.config.max_seq_len)
    return min(-(-context_len // q) * q, cap)


def _spanned(rec: SpanRecorder, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def install(rec: SpanRecorder) -> None:
    """Patch the layers' public entry points to record into ``rec``.

    Call once, in a traced child process, before the workload is built.
    """
    from repro.accelerator import compiler
    from repro.appliance import continuous
    from repro.llm import workload
    from repro.perf import analytical, simulator

    for fname in ("sampled_workload", "multi_tenant_workload",
                  "zipf_tenants", "steady_arrivals", "arrivals_for_shape",
                  "flash_crowd_arrivals"):
        setattr(workload, fname,
                _spanned(rec, "llm.workload", getattr(workload, fname)))

    def count_program(args, program) -> None:
        rec.counts["accelerator.program_instrs"] += len(program)

    for fname in ("timing_program", "batched_timing_program"):
        setattr(compiler, fname,
                _spanned(rec, "accelerator.compile",
                         getattr(compiler, fname), after=count_program))

    simulator.AcceleratorSimulator.run = _spanned(
        rec, "perf.simulator", simulator.AcceleratorSimulator.run)
    analytical.InferenceTimer.run = _spanned(
        rec, "perf.inference", analytical.InferenceTimer.run)
    continuous.ContinuousBatchScheduler.run = _spanned(
        rec, "appliance.run", continuous.ContinuousBatchScheduler.run)

    op_time = analytical.PnmPerfModel.op_time

    @functools.wraps(op_time)
    def counted_op_time(self, op):
        rec.counts["perf.op_time.calls"] += 1
        return op_time(self, op)

    analytical.PnmPerfModel.op_time = counted_op_time

    for cls in (analytical.BatchStepTimer, simulator.SimulatedStepTimer):
        _wrap_step_timer(rec, cls)


def _wrap_step_timer(rec: SpanRecorder, cls) -> None:
    decode_step, decode_steps = cls.decode_step_s, cls.decode_steps_s
    cls.prefill_s = _spanned(rec, "perf.prefill", cls.prefill_s)

    # Point bookkeeping runs inside the span, so it lands in perf self
    # time (tracing overhead) rather than in the calling layer's.
    @functools.wraps(decode_step)
    def decode_step_s(self, batch, context_len):
        nested = rec.parent_name() == "perf.decode_steps"
        idx = rec.open("perf.decode_step")
        try:
            if not nested:
                rec.points_requested += 1
                rec.points.add((id(self), batch, _quantized_context(
                    self, int(context_len))))
            return decode_step(self, batch, context_len)
        finally:
            rec.close(idx)

    @functools.wraps(decode_steps)
    def decode_steps_s(self, batch, context_lens):
        idx = rec.open("perf.decode_steps")
        try:
            ctxs = [int(c) for c in context_lens]
            rec.points_requested += len(ctxs)
            rec.points.update(
                (id(self), batch, _quantized_context(self, c)) for c in ctxs)
            return decode_steps(self, batch, context_lens)
        finally:
            rec.close(idx)

    cls.decode_step_s = decode_step_s
    cls.decode_steps_s = decode_steps_s
