"""Event-driven serving kernel: satellite-bug regressions and timelines.

Each regression pins a timing bug the retired global-iteration barrier
kernel used to hide (idle-stall deferral, completion-time inflation,
dead-device capacity, ``id()``-keyed failover attribution), with the
hand-computed timeline in comments.  The timeline suite then asserts
the event kernel against fully hand-computed schedules — the cases
that used to A/B against ``engine="barrier"`` now carry the expected
numbers directly (the two kernels were bit-identical on these
workloads when the barrier retired, so the constants are the agreed
values).
"""

import pytest

from repro.appliance import (
    ContinuousBatchScheduler,
    GpuAppliance,
    PnmAppliance,
    TenantClass,
)
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, chaos
from repro.llm import (
    OPT_1_3B,
    InferenceRequest,
    peak_kv_bytes,
    steady_arrivals,
    tiny_config,
)
from repro.gpu import A100_40G
from repro.perf.analytical import BatchStepTimer

CFG = tiny_config()
APPLIANCES = (PnmAppliance(num_devices=2),
              GpuAppliance(A100_40G, num_devices=2))


class ConstStep:
    """Hand-computable step model: fixed prefill and decode costs."""

    def __init__(self, prefill=1.0, decode=0.5):
        self.prefill = prefill
        self.decode = decode

    def prefill_s(self, input_len):
        return self.prefill

    def decode_step_s(self, batch, context_len):
        return self.decode


class LenStep(ConstStep):
    """Prefill cost proportional to input length (skews devices)."""

    def prefill_s(self, input_len):
        return float(input_len)


def _memory_for(batch, input_len=8, output_len=6):
    return CFG.param_bytes + batch * peak_kv_bytes(CFG, input_len,
                                                   output_len)


def _requests(n, input_len=4, output_len=3):
    return [InferenceRequest(input_len, output_len, request_id=i)
            for i in range(n)]


def _run(step=None, requests=None, arrivals=None, memory=None, **kwargs):
    scheduler = ContinuousBatchScheduler(
        step or ConstStep(), CFG, memory or _memory_for(8), **kwargs)
    return scheduler.run(requests or _requests(4), arrivals)


class TestIdleStallElapses:
    """Satellite 1: stalls elapse in simulated time, busy or not."""

    # r0=(4,3) at t=0: prefill [0,1], decodes [1,1.5],[1.5,2] -> done
    # at 2.  STALL at t=10 for 3 s hits an idle device and is over by
    # t=13, long before r1 arrives at t=100: prefill [100,101],
    # decodes -> done at 102.
    PLAN = FaultPlan().with_device_stall(at_s=10.0, duration_s=3.0)

    def _stalled(self, arrivals):
        with chaos(self.PLAN):
            return _run(requests=_requests(2), arrivals=arrivals)

    def test_stall_absorbed_by_idle_time(self):
        stats = self._stalled([0.0, 100.0])
        late = max(stats.completed, key=lambda c: c.finish_s)
        assert late.start_s == pytest.approx(100.0)
        assert late.queue_wait_s == 0.0
        assert stats.makespan_s == pytest.approx(102.0)
        assert stats.stall_s == 3.0  # still elapsed, still counted

    def test_partially_absorbed_stall_delays_the_remainder(self):
        # r1 arrives at t=12, one second into the idle stall window
        # [10, 13]: its unit starts at 13, not 12 (and not 15).
        stats = self._stalled([0.0, 12.0])
        late = max(stats.completed, key=lambda c: c.finish_s)
        assert late.start_s == pytest.approx(13.0)
        assert late.queue_wait_s == pytest.approx(1.0)

    def test_busy_stall_still_extends_makespan(self):
        # A stall during a busy stretch pushes everything after it out
        # by its full duration.
        plan = FaultPlan().with_device_stall(at_s=1.2, duration_s=3.0)
        base = _run()
        with chaos(plan):
            stalled = _run()
        assert stalled.makespan_s == pytest.approx(base.makespan_s + 3.0)


class TestFinishAtOwnDevice:
    """Satellite 2: finish_s is the finishing device's own step end."""

    # Two prefill-only requests at t=0 on two devices, prefill cost
    # = input_len: r0=(8,1) lands on device 0 and ends at 8, r1=(2,1)
    # lands on device 1 and ends at 2.  The pre-event-kernel code
    # stamped both with the slowest device's iteration end (8).
    def test_fast_device_finish_not_inflated(self):
        stats = _run(step=LenStep(),
                     requests=[InferenceRequest(8, 1, request_id=0),
                               InferenceRequest(2, 1, request_id=1)],
                     memory=_memory_for(4), num_devices=2)
        by_id = {c.request.request_id: c for c in stats.completed}
        assert by_id[0].finish_s == pytest.approx(8.0)
        assert by_id[1].finish_s == pytest.approx(2.0)
        assert stats.makespan_s == pytest.approx(8.0)


class TestDeadDeviceCapacity:
    """Satellite 3: failed devices stop accruing capacity."""

    # 4 requests (4,3) at t=0, 2 devices, max_batch=2: each device
    # prefills two requests [0,2] then decodes [2,3],[3,4].  Device 1
    # fails at 2.5 (its decode macro was fault-bounded to [2,3] and
    # then cancelled mid-flight): its two victims lose their KV caches,
    # requeue, and wait for device 0's slots.  Re-admitted at t=4 they
    # re-run prefill [4,5],[5,6] and decode [6,7],[7,8] -> makespan 8.
    #
    #   lost_device_s = 8 - 2.5 = 5.5
    #   busy_s        = d0: [0,4]+[4,8] = 8;  d1: [0,2] = 2  -> 10
    #   utilization   = 10 / (2*8 - 5.5) = 10/10.5
    PLAN = FaultPlan().with_device_failure(at_s=2.5, device=1)

    def _stats(self):
        with chaos(self.PLAN):
            return _run(step=ConstStep(prefill=1.0, decode=1.0),
                        requests=_requests(4), num_devices=2,
                        max_batch=2)

    def test_lost_device_seconds(self):
        stats = self._stats()
        assert len(stats.completed) == 4
        assert stats.makespan_s == pytest.approx(8.0)
        assert stats.devices_failed == 1
        assert stats.lost_device_s == pytest.approx(5.5)
        assert stats.as_dict()["lost_device_s"] == pytest.approx(5.5)

    def test_utilization_excludes_lost_capacity(self):
        stats = self._stats()
        assert stats.busy_s == pytest.approx(10.0)
        assert stats.available_device_s == pytest.approx(10.5)
        assert stats.instance_utilization == pytest.approx(10.0 / 10.5)
        # The failing-before denominator charged the dead device for
        # the whole makespan: 8/12, visibly below the fixed value.
        naive = stats.busy_s / (stats.makespan_s * stats.num_instances)
        assert stats.instance_utilization > naive

    def test_no_faults_means_no_lost_capacity(self):
        stats = _run()
        assert stats.lost_device_s == 0.0


class TestFailoverAttribution:
    """Satellite 4: duplicate request objects keep exact attribution."""

    # The same InferenceRequest *object* appears twice in the stream
    # (colliding id()); both copies land on device 1 and both are
    # requeued when it fails.  The old id()-keyed requeue_info table
    # overwrote one copy's entry, dropping a failover count and a
    # latency sample.
    def test_duplicate_object_failovers_both_counted(self):
        dup = InferenceRequest(4, 3, request_id=1)
        big = InferenceRequest(8, 6, request_id=0)
        plan = FaultPlan().with_device_failure(at_s=0.5, device=1)
        with chaos(plan) as state:
            stats = _run(requests=[big, dup, dup],
                         memory=_memory_for(4), num_devices=2)
        assert len(stats.completed) == 3
        assert stats.failovers == 2
        copies = [c for c in stats.completed if c.request is dup]
        assert [c.failovers for c in copies] == [1, 1]
        assert len(stats.failover_latencies_s) == 2
        assert state.counters.requests_requeued == 2


class TestEventTimelines:
    """Hand-computed single-device schedules (ex kernel-A/B cases)."""

    def test_closed_batch_exact(self):
        # 6 requests (4,3) all at t=0, prefill=1, decode=0.5: one
        # prefill-bearing unit runs the six prefills back to back
        # ([0,1]..[5,6], first tokens at 1..6), then the whole batch
        # decodes its remaining 2 tokens in steps [6,6.5],[6.5,7].
        stats = _run(requests=_requests(6))
        assert len(stats.completed) == 6
        by_id = {c.request.request_id: c for c in stats.completed}
        for i in range(6):
            assert by_id[i].start_s == pytest.approx(0.0)
            assert by_id[i].first_token_s == pytest.approx(float(i + 1))
            assert by_id[i].finish_s == pytest.approx(7.0)
        assert stats.makespan_s == pytest.approx(7.0)
        assert stats.max_occupancy == 6

    def test_kv_pressure_serializes_admission(self):
        # KV room for exactly one (4,3) request: r1 waits until r0's
        # reservation frees at its completion.  r0: prefill [0,1],
        # decodes [1,1.5],[1.5,2].  r1 admitted at 2: prefill [2,3],
        # decodes [3,3.5],[3.5,4].
        stats = _run(requests=_requests(2), memory=_memory_for(1, 4, 3))
        by_id = {c.request.request_id: c for c in stats.completed}
        assert by_id[0].start_s == pytest.approx(0.0)
        assert by_id[0].finish_s == pytest.approx(2.0)
        assert by_id[1].start_s == pytest.approx(2.0)
        assert by_id[1].first_token_s == pytest.approx(3.0)
        assert by_id[1].finish_s == pytest.approx(4.0)
        assert stats.makespan_s == pytest.approx(4.0)
        assert stats.max_occupancy == 1

    @pytest.mark.parametrize("seed,rate", [(0, 0.5), (1, 2.0), (2, 8.0)])
    def test_poisson_streams_deterministic_and_fcfs(self, seed, rate):
        arrivals = steady_arrivals(10, rate, seed=seed)
        runs = []
        for _ in range(2):
            stats = _run(requests=_requests(10), arrivals=arrivals)
            runs.append([(c.request.request_id, c.start_s, c.finish_s,
                          c.first_token_s) for c in stats.completed])
        assert runs[0] == runs[1]  # bit-identical, not approx
        # FCFS on one device: admission order follows arrival order.
        starts = sorted((start, rid) for rid, start, _f, _t in runs[0])
        assert [rid for _s, rid in starts] == sorted(
            range(10), key=lambda i: (arrivals[i], i))

    def test_mid_macro_arrival_truncates_to_step_boundary(self):
        # r0=(4,5): prefill [0,1], decode macro of 4 steps ending at
        # 1.5/2.0/2.5/3.0.  r1 arrives at 1.7 mid-macro: the kernel
        # cuts the macro at the next step boundary (2.0) and starts
        # r1's prefill there.
        requests = [InferenceRequest(4, 5, request_id=0),
                    InferenceRequest(4, 3, request_id=1)]
        stats = _run(requests=requests, arrivals=[0.0, 1.7])
        r1 = next(c for c in stats.completed
                  if c.request.request_id == 1)
        assert r1.start_s == pytest.approx(2.0)
        assert r1.first_token_s == pytest.approx(3.0)


class TestScaleSmoke:
    def test_many_requests_many_devices_deterministic(self):
        requests = _requests(600, input_len=4, output_len=3)
        arrivals = steady_arrivals(600, 20.0, seed=9)
        runs = []
        for _ in range(2):
            stats = _run(requests=requests, arrivals=arrivals,
                         num_devices=4, max_batch=4)
            runs.append(stats.as_dict())
        assert runs[0] == runs[1]
        assert runs[0]["requests"] == 600.0
        assert runs[0]["rejected"] == 0.0

    def test_appliance_serve_entry_point(self):
        appliance = PnmAppliance(num_devices=2)
        requests = [InferenceRequest(16, 8, request_id=i)
                    for i in range(6)]
        stats = appliance.serve(OPT_1_3B, requests)
        assert len(stats.completed) == 6
        assert stats.num_instances == 2
        # Differential: every serve() option lands on the scheduler
        # exactly as a hand-built one would take it, on both devices.
        requests = [InferenceRequest(16, 8, request_id=i,
                                     tenant_class=("interactive",
                                                   "batch")[i % 2])
                    for i in range(24)]
        arrivals = steady_arrivals(len(requests), 40.0, seed=5)
        memory = OPT_1_3B.param_bytes + 3 * peak_kv_bytes(OPT_1_3B, 16, 8)
        for appliance in APPLIANCES:
            step = BatchStepTimer(OPT_1_3B, appliance.perf_model)
            classes = (TenantClass("interactive", weight=3.0, priority=1,
                                   ttft_target_s=1.5 * step.prefill_s(16),
                                   tbt_target_s=2.0
                                   * step.decode_step_s(1, 17)),
                       TenantClass("batch"))
            options = dict(max_batch=2, classes=classes,
                           slo_admission=True)
            served = appliance.serve(OPT_1_3B, requests, arrivals,
                                     memory_bytes=memory, **options)
            by_hand = ContinuousBatchScheduler(
                step, OPT_1_3B, memory, num_devices=2, **options
            ).run(requests, arrivals)
            assert served.as_dict() == by_hand.as_dict()
            assert served.class_breakdown() == by_hand.class_breakdown()
            # The options engaged: SLO sheds, priority preemption and
            # the per-device batch cap all show in the stats.
            assert served.rejected and served.preemptions
            assert served.max_occupancy <= 2 * appliance.num_devices

    @pytest.mark.parametrize("appliance", APPLIANCES,
                             ids=lambda a: a.name)
    def test_step_timer_int8_prices_the_quantized_copy(self, appliance):
        timer = appliance.step_timer(OPT_1_3B, "int8")
        by_hand = BatchStepTimer(OPT_1_3B.with_dtype(1),
                                 appliance.perf_model)
        assert timer.prefill_s(64) == by_hand.prefill_s(64)
        for batch, ctx in ((1, 65), (8, 577), (32, 1025)):
            assert timer.decode_step_s(batch, ctx) \
                == by_hand.decode_step_s(batch, ctx)
        assert timer.decode_step_s(8, 577) \
            < appliance.step_timer(OPT_1_3B).decode_step_s(8, 577)

    @pytest.mark.parametrize("appliance", APPLIANCES,
                             ids=lambda a: a.name)
    def test_step_timer_rejects_unknown_quantize(self, appliance):
        with pytest.raises(ConfigurationError, match="fp8"):
            appliance.step_timer(OPT_1_3B, "fp8")
