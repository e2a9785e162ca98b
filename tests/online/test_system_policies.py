"""Online system: deadline-driven and size-driven batching."""

import pytest

from repro.geometry import tiny_tape
from repro.library import label_requests
from repro.online import BatchPolicy
from repro.workload import TimedRequest


@pytest.fixture()
def tape():
    return tiny_tape(seed=31)


class TestDeadlinePolicy:
    def test_deadline_forces_partial_batch(self, tape, single_drive):
        # One request, then silence: without flush-on-idle the batch
        # must go out when the deadline expires.
        policy = BatchPolicy(
            max_batch=50,
            max_wait_seconds=120.0,
            flush_when_idle=False,
        )
        system = single_drive(tape, policy=policy)
        stats = system.run(label_requests("tape", [TimedRequest(0.0, 10)]))
        assert stats.count == 1
        assert len(system.batches) == 1
        assert system.batches[0].size == 1
        # It waited for the deadline before starting service.
        assert system.batches[0].start_seconds >= 120.0

    def test_full_batch_skips_deadline(self, tape, single_drive):
        policy = BatchPolicy(
            max_batch=3,
            max_wait_seconds=1e6,
            flush_when_idle=False,
        )
        system = single_drive(tape, policy=policy)
        requests = [TimedRequest(float(i), i * 5) for i in range(3)]
        system.run(label_requests("tape", requests))
        assert len(system.batches) == 1
        assert system.batches[0].start_seconds < 100.0


class TestIdleFlush:
    def test_idle_drive_takes_singletons(self, tape, single_drive):
        policy = BatchPolicy(max_batch=100, flush_when_idle=True)
        system = single_drive(tape, policy=policy)
        system.run(label_requests("tape", [TimedRequest(0.0, 10)]))
        assert len(system.batches) == 1
        assert system.batches[0].start_seconds == pytest.approx(0.0)

    def test_busy_drive_accumulates(self, tape, single_drive):
        # While the first (long) batch runs, later arrivals pool into
        # one second batch instead of many singletons.
        policy = BatchPolicy(max_batch=100, flush_when_idle=True)
        system = single_drive(tape, policy=policy)
        requests = [TimedRequest(0.0, tape.total_segments - 1)]
        requests += [
            TimedRequest(1.0 + i, i * 3) for i in range(10)
        ]
        system.run(label_requests("tape", requests))
        assert len(system.batches) == 2
        assert system.batches[1].size == 10


class TestAccounting:
    def test_all_responses_recorded_once(self, tape, single_drive):
        policy = BatchPolicy(max_batch=4, flush_when_idle=False)
        system = single_drive(tape, policy=policy)
        requests = [TimedRequest(float(i), (i * 7) % 100)
                    for i in range(12)]
        stats = system.run(label_requests("tape", requests))
        assert stats.count == 12
        assert sum(b.size for b in system.batches) == 12

    def test_batch_algorithm_label(self, tape, single_drive):
        system = single_drive(tape)
        system.run(
            label_requests(
                "tape", [TimedRequest(0.0, 5), TimedRequest(0.0, 50)]
            )
        )
        assert system.batches[0].algorithm == "LOSS"
