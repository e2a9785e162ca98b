"""Graceful degradation in the online serving loop (one drive, one tape)."""

import pytest

from repro.cache import CachedLibrarySystem, SegmentCache
from repro.library import label_requests
from repro.obs import EventBus
from repro.online.batch_queue import BatchPolicy
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.workload.arrivals import PoissonArrivals


def _requests(tiny, count=40, rate=240.0, seed=0):
    arrivals = PoissonArrivals(
        rate_per_hour=rate, total_segments=tiny.total_segments, seed=seed
    )
    return label_requests("tape", arrivals.batch(count / rate * 3600.0))


@pytest.fixture()
def make_system(single_drive):
    def build(tiny, **kwargs):
        kwargs.setdefault("policy", BatchPolicy(max_batch=8))
        return single_drive(tiny, **kwargs)

    return build


def _permanent(failed_events):
    """``request.failed`` fires at two levels: the executor reports each
    batch-level retry exhaustion (the request may still be requeued),
    the system reports the permanent give-up.  Keep the latter."""
    return [
        e for e in failed_events
        if e.reason == "requeue budget exhausted"
    ]


class TestRequeue:
    def test_faulted_requests_requeue_then_complete(self, tiny, make_system):
        bus = EventBus()
        failed_events = bus.collect("request.failed")
        system = make_system(
            tiny,
            bus=bus,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2), max_requeues=5
            ),
            fault_plan=FaultPlan(
                locate_fault_probability=0.35, seed=3
            ),
        )
        requests = _requests(tiny)
        stats = system.run(requests)
        # Every request eventually completed (possibly after requeues).
        assert stats.count == len(requests)
        assert system.failed == []
        assert _permanent(failed_events) == []
        assert system.requeues > 0
        assert system.bays[0].drive.faults_injected > 0

    def test_requeue_budget_exhaustion_surfaces_failures(self, tiny, make_system):
        bus = EventBus()
        failed_events = bus.collect("request.failed")
        system = make_system(
            tiny,
            bus=bus,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1), max_requeues=0
            ),
            fault_plan=FaultPlan(
                locate_fault_probability=0.45, seed=2
            ),
        )
        requests = _requests(tiny)
        stats = system.run(requests)
        # The run terminates, and the books balance: every request is
        # either a recorded completion or a surfaced failure.
        assert len(system.failed) > 0
        assert stats.count + len(system.failed) == len(requests)
        assert system.requeues == 0
        assert len(_permanent(failed_events)) == len(system.failed)

    def test_requeued_request_keeps_original_arrival(self, tiny, make_system):
        system = make_system(
            tiny,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2), max_requeues=5
            ),
            fault_plan=FaultPlan(
                locate_fault_probability=0.35, seed=3
            ),
        )
        requests = _requests(tiny)
        stats = system.run(requests)
        if system.requeues == 0:
            pytest.skip("fault pattern produced no requeues")
        # A requeued request waits through at least one extra batch, so
        # its response time (measured from the *original* arrival)
        # exceeds anything a clean run produces.
        clean = make_system(tiny)
        clean_stats = clean.run(requests)
        assert stats.max_seconds > clean_stats.max_seconds

    def test_without_resilience_behaviour_is_unchanged(self, tiny, make_system):
        requests = _requests(tiny)
        plain = make_system(tiny)
        plain_stats = plain.run(requests)
        hardened = make_system(tiny, resilience=ResilienceConfig())
        hardened_stats = hardened.run(requests)
        assert hardened_stats.samples == plain_stats.samples
        assert hardened.failed == []


class TestDegradedMode:
    def test_blown_schedule_budget_falls_back_to_sort(self, tiny, make_system):
        bus = EventBus()
        degraded_events = bus.collect("system.degraded")
        system = make_system(
            tiny,
            bus=bus,
            resilience=ResilienceConfig(
                schedule_wall_budget_seconds=0.0
            ),
        )
        requests = _requests(tiny)
        stats = system.run(requests)
        assert stats.count == len(requests)
        assert system.degraded
        # Sticky, announced exactly once.
        assert len(degraded_events) == 1
        event = degraded_events[0]
        assert event.from_algorithm == "LOSS"
        assert event.to_algorithm == "SORT"
        assert "wall" in event.reason
        # Batches after the trip run under the fallback algorithm.
        algorithms = [record.algorithm for record in system.batches]
        assert algorithms[0] == "LOSS"
        assert "SORT" in algorithms
        assert system._active_scheduler().name == "SORT"

    def test_blown_execution_budget_trips_degraded(self, tiny, make_system):
        bus = EventBus()
        degraded_events = bus.collect("system.degraded")
        system = make_system(
            tiny,
            bus=bus,
            resilience=ResilienceConfig(
                execution_budget_seconds=1.0
            ),
        )
        system.run(_requests(tiny))
        assert system.degraded
        assert len(degraded_events) == 1
        assert "simulated" in degraded_events[0].reason

    def test_unbudgeted_system_never_degrades(self, tiny, make_system):
        system = make_system(tiny, resilience=ResilienceConfig())
        system.run(_requests(tiny))
        assert not system.degraded

    def test_fault_plan_implies_default_resilience(self, tiny, make_system):
        system = make_system(
            tiny,
            fault_plan=FaultPlan(locate_fault_probability=0.2, seed=1),
        )
        assert system.resilience is not None
        stats = system.run(_requests(tiny))
        assert stats.count + len(system.failed) == len(_requests(tiny))

    def test_zero_rate_fault_plan_adds_no_wrapper(self, tiny, make_system):
        from repro.drive import SimulatedDrive

        system = make_system(tiny, fault_plan=FaultPlan())
        assert isinstance(system.bays[0].drive, SimulatedDrive)


class TestBatchAccounting:
    def test_batch_records_carry_faults_and_failures(self, tiny, make_system):
        system = make_system(
            tiny,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1), max_requeues=0
            ),
            fault_plan=FaultPlan(
                locate_fault_probability=0.45, seed=2
            ),
        )
        system.run(_requests(tiny))
        assert sum(r.failed for r in system.batches) == len(system.failed)
        assert any(r.fault_seconds > 0 for r in system.batches)
        for record in system.batches:
            assert record.phase_seconds == pytest.approx(
                record.execution_seconds
            )

    def test_batch_completed_events_reconcile_under_faults(self, tiny, make_system):
        bus = EventBus()
        completed = bus.collect("batch.complete")
        system = make_system(
            tiny,
            bus=bus,
            resilience=ResilienceConfig(),
            fault_plan=FaultPlan(
                locate_fault_probability=0.3, seed=4
            ),
        )
        system.run(_requests(tiny))
        assert len(completed) == len(system.batches)
        for event in completed:
            assert (
                event.locate_seconds
                + event.transfer_seconds
                + event.rewind_seconds
                + event.fault_seconds
            ) == pytest.approx(event.total_seconds)


class TestCachedSystemUnderFaults:
    def test_failed_reads_are_not_admitted(self, tiny, make_system):
        system = CachedLibrarySystem(
            system=make_system(
                tiny,
                resilience=ResilienceConfig(
                    retry=RetryPolicy(max_attempts=1), max_requeues=0
                ),
                fault_plan=FaultPlan(
                    locate_fault_probability=0.45, seed=2
                ),
            ),
            cache=SegmentCache(256),
        )
        requests = _requests(tiny)
        stats = system.run(requests)
        assert len(system.failed) > 0
        assert stats.count + len(system.failed) == len(requests)
        # A request that never delivered data must not be in the cache:
        # a later identical request would "hit" segments never read.
        completed_segments = set()
        for item in requests:
            if item not in system.failed:
                completed_segments.add(item.segment)
        for item in system.failed:
            if item.segment not in completed_segments:
                assert item.segment not in system.cache

    def test_cached_system_completes_under_faults(self, tiny, make_system):
        system = CachedLibrarySystem(
            system=make_system(
                tiny,
                resilience=ResilienceConfig(max_requeues=5),
                fault_plan=FaultPlan(
                    locate_fault_probability=0.3, seed=6
                ),
            ),
            cache=SegmentCache(256),
        )
        requests = _requests(tiny)
        stats = system.run(requests)
        assert stats.count == len(requests)
        assert system.failed == []
