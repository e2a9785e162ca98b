"""The online tertiary storage system: one drive, one preloaded tape."""

import pytest

from repro.geometry import tiny_tape
from repro.library import label_requests
from repro.online import BatchPolicy
from repro.workload import PoissonArrivals, TimedRequest


@pytest.fixture()
def tape():
    return tiny_tape(seed=5)


class TestSystem:
    def test_services_every_request(self, tape, single_drive):
        requests = PoissonArrivals(
            rate_per_hour=400.0, total_segments=tape.total_segments,
            seed=1,
        ).batch(2 * 3600.0)
        system = single_drive(tape, policy=BatchPolicy(max_batch=16))
        stats = system.run(label_requests("tape", requests))
        assert stats.count == len(requests)

    def test_responses_nonnegative_and_recorded(self, tape, single_drive):
        requests = [
            TimedRequest(0.0, 5),
            TimedRequest(1.0, 90),
            TimedRequest(2.0, 40),
        ]
        system = single_drive(tape)
        stats = system.run(label_requests("tape", requests))
        assert stats.count == 3
        assert stats.mean_seconds > 0.0

    def test_batches_recorded(self, tape, single_drive):
        requests = [TimedRequest(float(i), i * 3) for i in range(20)]
        system = single_drive(
            tape, policy=BatchPolicy(max_batch=5, flush_when_idle=False)
        )
        system.run(label_requests("tape", requests))
        assert len(system.batches) == 4
        assert all(b.size == 5 for b in system.batches)
        assert all(b.algorithm for b in system.batches)

    def test_drive_busy_serializes_batches(self, tape, single_drive):
        requests = [TimedRequest(0.0, 5), TimedRequest(0.1, 500)]
        system = single_drive(tape, policy=BatchPolicy(max_batch=1))
        system.run(label_requests("tape", requests))
        first, second = system.batches
        assert second.start_seconds >= (
            first.start_seconds + first.execution_seconds
        )

    def test_duplicate_segments_all_complete(self, tape, single_drive):
        requests = [
            TimedRequest(0.0, 42),
            TimedRequest(0.5, 42),
            TimedRequest(1.0, 42),
        ]
        system = single_drive(tape)
        stats = system.run(label_requests("tape", requests))
        assert stats.count == 3

    def test_head_carries_over_between_batches(self, tape, single_drive):
        # The paper's repeated-batches scenario: each batch starts where
        # the previous one ended.
        requests = [TimedRequest(0.0, 10), TimedRequest(0.1, 200)]
        system = single_drive(tape, policy=BatchPolicy(max_batch=1))
        system.run(label_requests("tape", requests))
        assert system.bays[0].drive.position != 0
