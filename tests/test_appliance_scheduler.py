"""Request scheduler: FCFS dispatch, queueing, statistics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.appliance.scheduler import (
    RequestScheduler,
    ServiceStats,
    timer_service,
)
from repro.accelerator import CXLPNMDevice
from repro.errors import ConfigurationError
from repro.llm import (
    InferenceRequest,
    OPT_1_3B,
    sampled_workload,
    steady_arrivals,
    tiny_config,
)
from repro.obs import MetricsRegistry
from repro.perf.analytical import PnmPerfModel


def _constant_service(latency: float):
    return lambda request: latency


class TestScheduler:
    def test_single_instance_serializes(self):
        scheduler = RequestScheduler(_constant_service(1.0),
                                     num_instances=1)
        requests = [InferenceRequest(1, 1, request_id=i) for i in range(4)]
        stats = scheduler.run(requests)
        assert stats.makespan_s == pytest.approx(4.0)
        finishes = sorted(c.finish_s for c in stats.completed)
        assert finishes == pytest.approx([1.0, 2.0, 3.0, 4.0])

    def test_instances_parallelize(self):
        scheduler = RequestScheduler(_constant_service(1.0),
                                     num_instances=4)
        requests = [InferenceRequest(1, 1, request_id=i) for i in range(4)]
        assert scheduler.run(requests).makespan_s == pytest.approx(1.0)

    def test_queue_wait_accumulates(self):
        scheduler = RequestScheduler(_constant_service(2.0),
                                     num_instances=1)
        requests = [InferenceRequest(1, 1, request_id=i) for i in range(3)]
        stats = scheduler.run(requests)
        waits = sorted(c.queue_wait_s for c in stats.completed)
        assert waits == pytest.approx([0.0, 2.0, 4.0])

    def test_arrivals_respected(self):
        scheduler = RequestScheduler(_constant_service(1.0),
                                     num_instances=1)
        requests = [InferenceRequest(1, 1, request_id=i) for i in range(2)]
        stats = scheduler.run(requests, arrival_times=[0.0, 10.0])
        assert stats.completed[-1].start_s == pytest.approx(10.0)
        assert stats.completed[-1].queue_wait_s == 0.0

    def test_utilization_bounds(self):
        scheduler = RequestScheduler(_constant_service(1.0),
                                     num_instances=2)
        requests = [InferenceRequest(1, 1, request_id=i) for i in range(5)]
        stats = scheduler.run(requests)
        assert 0.0 < stats.instance_utilization <= 1.0

    def test_percentiles_ordered(self):
        scheduler = RequestScheduler(_constant_service(0.5),
                                     num_instances=1)
        requests = [InferenceRequest(1, 1, request_id=i)
                    for i in range(20)]
        stats = scheduler.run(requests)
        assert stats.p50_latency_s <= stats.p95_latency_s
        assert stats.mean_latency_s > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RequestScheduler(_constant_service(1.0), num_instances=0)
        scheduler = RequestScheduler(_constant_service(1.0), 1)
        with pytest.raises(ConfigurationError):
            scheduler.run([])
        with pytest.raises(ConfigurationError):
            scheduler.run([InferenceRequest(1, 1)], arrival_times=[0, 1])

    def test_fcfs_stable_under_tied_arrivals(self):
        """Equal arrival times must not reorder requests: completion
        order on one instance follows submission order."""
        scheduler = RequestScheduler(_constant_service(1.0),
                                     num_instances=1)
        requests = [InferenceRequest(1, 1, request_id=i)
                    for i in range(8)]
        stats = scheduler.run(requests, arrival_times=[0.0] * 8)
        order = [c.request.request_id
                 for c in sorted(stats.completed,
                                 key=lambda c: c.finish_s)]
        assert order == list(range(8))


class TestAdmission:
    """Infeasible requests are rejected, never served with fake latency."""

    def test_oversize_request_rejected(self):
        cfg = tiny_config()  # max_seq_len = 64
        scheduler = RequestScheduler(_constant_service(1.0), 1, config=cfg)
        good = InferenceRequest(4, 4, request_id=0)
        bad = InferenceRequest(60, 10, request_id=1)
        stats = scheduler.run([good, bad])
        assert [c.request.request_id for c in stats.completed] == [0]
        (rej,) = stats.rejected
        assert rej.request.request_id == 1
        assert "max_seq_len" in rej.reason
        assert stats.as_dict()["rejected"] == 1.0

    def test_kv_overflow_rejected(self):
        cfg = tiny_config()
        scheduler = RequestScheduler(
            _constant_service(1.0), 1, config=cfg,
            memory_bytes=cfg.param_bytes + cfg.kv_bytes_per_token())
        stats = scheduler.run([InferenceRequest(4, 4, request_id=0)])
        assert not stats.completed
        assert "memory" in stats.rejected[0].reason

    def test_all_rejected_reports_zeros(self):
        cfg = tiny_config()
        scheduler = RequestScheduler(_constant_service(1.0), 1, config=cfg)
        stats = scheduler.run([InferenceRequest(60, 10, request_id=i)
                               for i in range(3)])
        assert stats.makespan_s == 0.0
        assert stats.mean_latency_s == 0.0
        assert stats.p95_latency_s == 0.0
        assert stats.mean_queue_wait_s == 0.0
        assert stats.throughput_tokens_per_s == 0.0
        assert stats.instance_utilization == 0.0
        for value in stats.as_dict().values():
            assert value == value  # no NaNs

    def test_rejection_counter(self):
        cfg = tiny_config()
        metrics = MetricsRegistry()
        scheduler = RequestScheduler(_constant_service(1.0), 1, config=cfg,
                                     metrics=metrics)
        scheduler.run([InferenceRequest(60, 10), InferenceRequest(4, 4)])
        assert metrics.counter("scheduler.rejected").value == 1


class TestQueueDepthGauge:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 20),
           rate=st.floats(0.5, 50.0),
           latency=st.floats(0.01, 2.0),
           instances=st.integers(1, 4),
           seed=st.integers(0, 100))
    def test_never_negative(self, n, rate, latency, instances, seed):
        metrics = MetricsRegistry()
        scheduler = RequestScheduler(_constant_service(latency),
                                     num_instances=instances,
                                     metrics=metrics)
        requests = [InferenceRequest(1, 1, request_id=i) for i in range(n)]
        scheduler.run(requests, steady_arrivals(n, rate, seed=seed))
        gauge = metrics.gauge("scheduler.queue_depth")
        assert gauge.min >= 0
        assert gauge.max <= n

    def test_tied_arrivals_stay_non_negative(self):
        metrics = MetricsRegistry()
        scheduler = RequestScheduler(_constant_service(1.0),
                                     num_instances=2, metrics=metrics)
        requests = [InferenceRequest(1, 1, request_id=i) for i in range(6)]
        scheduler.run(requests, arrival_times=[0.0] * 6)
        assert metrics.gauge("scheduler.queue_depth").min >= 0


class TestTimerService:
    def test_longer_requests_take_longer(self):
        service = timer_service(OPT_1_3B, PnmPerfModel(CXLPNMDevice()))
        short = service(InferenceRequest(16, 8))
        long = service(InferenceRequest(16, 64))
        assert long > short

    def test_end_to_end_with_sampled_workload(self):
        service = timer_service(OPT_1_3B, PnmPerfModel(CXLPNMDevice()))
        requests = sampled_workload(12, seed=5, mean_output=32,
                                    max_total=512)
        scheduler = RequestScheduler(service, num_instances=4)
        arrivals = steady_arrivals(len(requests), rate_per_s=50.0)
        stats = scheduler.run(requests, arrivals)
        assert len(stats.completed) == 12
        assert stats.throughput_tokens_per_s > 0


class TestPoissonArrivals:
    def test_monotone_and_deterministic(self):
        a = steady_arrivals(50, 10.0, seed=1)
        b = steady_arrivals(50, 10.0, seed=1)
        assert a == b
        assert all(x < y for x, y in zip(a, a[1:]))

    def test_rate_roughly_respected(self):
        arrivals = steady_arrivals(2000, 100.0, seed=2)
        assert arrivals[-1] == pytest.approx(20.0, rel=0.2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            steady_arrivals(0, 1.0)
        with pytest.raises(ConfigurationError):
            steady_arrivals(5, 0.0)
