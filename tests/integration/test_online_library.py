"""Integration: online batching on the library kernel."""

import pytest

from repro.geometry import tiny_tape
from repro.library import label_requests
from repro.online import BatchPolicy
from repro.workload import PoissonArrivals


class TestSystemThroughputOrdering:
    @pytest.mark.parametrize("small,large", [(4, 32)])
    def test_bigger_batches_win_under_load(
        self, small, large, single_drive
    ):
        tape = tiny_tape(seed=9, tracks=6)
        # Heavy load relative to the tiny tape's service rate.
        requests = label_requests(
            "tape",
            PoissonArrivals(
                rate_per_hour=2000.0,
                total_segments=tape.total_segments,
                seed=4,
            ).batch(3600.0),
        )

        def span(max_batch):
            system = single_drive(
                tape, policy=BatchPolicy(max_batch=max_batch)
            )
            system.run(requests)
            last = system.batches[-1]
            return last.start_seconds + last.execution_seconds

        assert span(large) < span(small)
