"""The instrumented online system: one bus, every layer, exact accounting."""

import pytest

from repro.geometry import tiny_tape
from repro.obs import (
    EventBus,
    TraceRecorder,
    cache_stats_from_events,
    response_stats_from_events,
)
from repro.cache import CachedLibrarySystem, SegmentCache
from repro.library import Cartridge, TapeLibrary, label_requests
from repro.online import BatchPolicy
from repro.scheduling import ReadEntireTapeScheduler
from repro.workload import (
    PoissonArrivals,
    TimedRequest,
    ZipfArrivals,
    ZipfWorkload,
)

PHASE_TOLERANCE = 1e-6


@pytest.fixture()
def tape():
    return tiny_tape(seed=5)


def poisson_requests(tape, rate=400.0, hours=2.0, seed=1):
    return label_requests(
        "tape",
        PoissonArrivals(
            rate_per_hour=rate, total_segments=tape.total_segments,
            seed=seed,
        ).batch(hours * 3600.0),
    )


@pytest.fixture()
def instrumented_run(single_drive):
    def run(tape, requests, **system_kwargs):
        bus = EventBus()
        recorder = TraceRecorder(bus)
        system = single_drive(tape, bus=bus, **system_kwargs)
        stats = system.run(requests)
        return system, stats, recorder

    return run


class TestPhaseReconciliation:
    def test_figure4_style_workload(self, tape, instrumented_run):
        """Every batch's phase durations partition its execution."""
        system, _, recorder = instrumented_run(
            tape, poisson_requests(tape),
            policy=BatchPolicy(max_batch=16),
        )
        spans = recorder.batch_spans()
        assert len(spans) == len(system.batches) > 1
        for span, record in zip(spans, system.batches):
            assert span.phase_seconds == pytest.approx(
                span.total_seconds, abs=PHASE_TOLERANCE
            )
            assert span.total_seconds == record.execution_seconds
            assert record.phase_seconds == pytest.approx(
                record.execution_seconds, abs=PHASE_TOLERANCE
            )

    def test_whole_tape_read_plan_reconciles(self, tape, instrumented_run):
        """READ plans route rewinds into the rewind phase, not locate."""
        requests = label_requests(
            "tape", [TimedRequest(0.0, s) for s in range(0, 90, 7)]
        )
        system, _, recorder = instrumented_run(
            tape, requests,
            scheduler=ReadEntireTapeScheduler(),
            policy=BatchPolicy(max_batch=len(requests)),
        )
        (span,) = recorder.batch_spans()
        assert span.rewind_seconds > 0.0
        assert span.phase_seconds == pytest.approx(
            span.total_seconds, abs=PHASE_TOLERANCE
        )

    def test_summary_execution_matches_batches(self, tape, instrumented_run):
        system, _, recorder = instrumented_run(
            tape, poisson_requests(tape, hours=1.0),
            policy=BatchPolicy(max_batch=8),
        )
        summary = recorder.summary()
        total = sum(b.execution_seconds for b in system.batches)
        assert summary.execution_seconds == pytest.approx(total)
        assert (
            summary.locate_seconds
            + summary.transfer_seconds
            + summary.rewind_seconds
        ) == pytest.approx(summary.execution_seconds, abs=PHASE_TOLERANCE)


class TestStatsAreStreamConsumers:
    def test_event_stream_reproduces_response_stats(self, tape, instrumented_run):
        """ResponseStats rebuilt from events == the system's own stats."""
        _, stats, recorder = instrumented_run(
            tape, poisson_requests(tape),
            policy=BatchPolicy(max_batch=16),
        )
        rebuilt = response_stats_from_events(recorder.events)
        assert rebuilt.count == stats.count
        assert rebuilt.samples == stats.samples
        assert rebuilt.mean_seconds == stats.mean_seconds

    def test_trace_mean_matches_stats_mean(self, tape, instrumented_run):
        _, stats, recorder = instrumented_run(
            tape, poisson_requests(tape, hours=1.0),
            policy=BatchPolicy(max_batch=8),
        )
        summary = recorder.summary()
        assert summary.request_count == stats.count
        assert summary.mean_response_seconds == pytest.approx(
            stats.mean_seconds, rel=1e-12
        )

    def test_per_request_completions_not_batch_end(self, tape, instrumented_run):
        """Regression: requests complete at their own read, not at
        batch end — batch-end stamping would give every request in a
        batch the same completion time and inflate the mean."""
        requests = label_requests(
            "tape", [TimedRequest(0.0, s) for s in (5, 90, 40, 70, 20)]
        )
        system, stats, recorder = instrumented_run(
            tape, requests, policy=BatchPolicy(max_batch=len(requests)),
        )
        (record,) = system.batches
        completions = [
            e.completion_seconds
            for e in recorder.events
            if e.name == "request.complete"
        ]
        assert len(set(completions)) == len(completions)
        batch_end = record.start_seconds + record.execution_seconds
        assert max(completions) <= batch_end + 1e-9
        assert min(completions) < batch_end - 1.0
        assert stats.mean_seconds < batch_end

    def test_no_bus_run_identical(
        self, tape, instrumented_run, single_drive
    ):
        """Instrumentation must not perturb the simulation."""
        requests = poisson_requests(tape, hours=1.0)
        plain = single_drive(tape, policy=BatchPolicy(max_batch=8))
        stats_plain = plain.run(requests)
        _, stats_bus, _ = instrumented_run(
            tape, requests, policy=BatchPolicy(max_batch=8)
        )
        assert stats_bus.samples == stats_plain.samples


class TestEstimates:
    def test_locate_events_carry_estimates(self, tape, instrumented_run):
        _, _, recorder = instrumented_run(
            tape, poisson_requests(tape, hours=1.0),
            policy=BatchPolicy(max_batch=8),
        )
        locates = [
            e for e in recorder.events if e.name == "request.locate"
        ]
        assert locates
        for event in locates:
            assert event.estimated_seconds is not None
            # Model-driven drive: the estimate IS the physics.
            assert event.estimated_seconds == pytest.approx(
                event.actual_seconds, abs=1e-9
            )

    def test_schedule_computed_carries_estimate(self, tape, instrumented_run):
        system, _, recorder = instrumented_run(
            tape, poisson_requests(tape, hours=1.0),
            policy=BatchPolicy(max_batch=8),
        )
        computed = [
            e for e in recorder.events if e.name == "schedule.computed"
        ]
        assert len(computed) == len(system.batches)
        for event in computed:
            assert event.algorithm
            assert event.estimated_seconds is not None


class TestQueueEvents:
    def test_admits_and_dispatches_balance(self, tape, instrumented_run):
        requests = poisson_requests(tape, hours=1.0)
        system, _, recorder = instrumented_run(
            tape, requests, policy=BatchPolicy(max_batch=8),
        )
        admits = [e for e in recorder.events if e.name == "queue.admit"]
        dispatches = [
            e for e in recorder.events if e.name == "queue.dispatch"
        ]
        assert len(admits) == len(requests)
        assert sum(d.batch_size for d in dispatches) == len(requests)
        assert len(dispatches) == len(system.batches)

    def test_clock_stamps_monotone_per_kind(self, tape, instrumented_run):
        """Simulation-time stamps never go backwards within a kind.

        (The full stream is publish-ordered, not stamp-ordered: the
        executor's ``request.locate`` / ``request.read`` events are
        published when a batch is dispatched and ``request.complete``
        events when it completes, each stamped with its mid-batch
        instant.  Everything else is published at the kernel clock,
        so that part of the stream is stamp-ordered as a whole.)
        """
        _, _, recorder = instrumented_run(
            tape, poisson_requests(tape, hours=1.0),
            policy=BatchPolicy(max_batch=8),
        )
        mid_batch = ("request.locate", "request.read", "request.complete")
        for kind in mid_batch:
            stamps = [
                e.seconds for e in recorder.events if e.name == kind
            ]
            assert stamps and stamps == sorted(stamps)
        other = [
            e.seconds for e in recorder.events
            if e.name not in ("drive.op", *mid_batch)
        ]
        assert other == sorted(other)

    def test_admits_are_stamped_at_arrival(self, tape, instrumented_run):
        requests = poisson_requests(tape, hours=1.0)
        _, _, recorder = instrumented_run(
            tape, requests, policy=BatchPolicy(max_batch=8),
        )
        admits = [e for e in recorder.events if e.name == "queue.admit"]
        assert [e.seconds for e in admits] == [
            r.arrival_seconds for r in requests
        ]
        assert all(e.seconds == e.arrival_seconds for e in admits)


class TestCachedSystem:
    def run_cached(self, tape, single_drive, capacity=64):
        bus = EventBus()
        recorder = TraceRecorder(bus)
        workload = ZipfWorkload(
            total_segments=tape.total_segments, alpha=0.9,
            universe=30, seed=2,
        )
        requests = ZipfArrivals(
            rate_per_hour=600.0, workload=workload, seed=2
        ).batch(2 * 3600.0)
        system = CachedLibrarySystem(
            system=single_drive(
                tape, policy=BatchPolicy(max_batch=8), bus=bus
            ),
            cache=SegmentCache(capacity, bus=bus),
        )
        stats = system.run(label_requests("tape", requests))
        return system, stats, recorder

    def test_cache_stats_rebuilt_from_stream(self, tape, single_drive):
        system, _, recorder = self.run_cached(tape, single_drive)
        rebuilt = cache_stats_from_events(recorder.events)
        actual = system.cache_stats
        assert rebuilt.hits == actual.hits
        assert rebuilt.misses == actual.misses
        assert rebuilt.hit_segments == actual.hit_segments
        assert rebuilt.miss_segments == actual.miss_segments
        assert rebuilt.insertions == actual.insertions
        assert rebuilt.prefetch_insertions == actual.prefetch_insertions
        assert rebuilt.rejections == actual.rejections
        assert rebuilt.evictions == actual.evictions

    def test_hits_complete_with_sentinel_position(self, tape, single_drive):
        system, stats, recorder = self.run_cached(tape, single_drive)
        assert system.cache_stats.hits > 0
        spans = [
            s for s in recorder.request_spans() if s.cache_hit
        ]
        assert len(spans) == system.cache_stats.hits
        assert stats.count == len(recorder.request_spans())


class TestLibraryEvents:
    def test_mount_unmount_published(self):
        bus = EventBus()
        events = bus.collect(["library.mount", "library.unmount"])
        library = TapeLibrary(
            [
                Cartridge("alpha", tiny_tape(seed=1)),
                Cartridge("beta", tiny_tape(seed=2)),
            ],
            exchange_seconds=30.0,
            bus=bus,
        )
        library.mount("alpha")
        library.drive.locate(40)
        library.mount("beta")  # implies unmount of alpha
        names = [e.name for e in events]
        assert names == [
            "library.mount", "library.unmount", "library.mount",
        ]
        unmount = events[1]
        assert unmount.label == "alpha"
        assert unmount.rewind_seconds > 0.0

    def test_mounted_drive_shares_bus(self):
        bus = EventBus()
        ops = bus.collect("drive.op")
        library = TapeLibrary(
            [Cartridge("alpha", tiny_tape(seed=1))], bus=bus
        )
        library.mount("alpha")
        library.drive.locate(40)
        assert any(op.kind == "locate" for op in ops)
