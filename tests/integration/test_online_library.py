"""Integration: online batching over a multi-cartridge library."""

import pytest

from repro.geometry import tiny_tape
from repro.library import Cartridge, TapeLibrary, label_requests
from repro.online import BatchPolicy
from repro.scheduling import LossScheduler, Request
from repro.scheduling.executor import execute_schedule
from repro.workload import PoissonArrivals


class TestLibraryServiceLoop:
    def test_mount_schedule_execute_across_cartridges(self, rng):
        library = TapeLibrary(
            [
                Cartridge("vol1", tiny_tape(seed=1)),
                Cartridge("vol2", tiny_tape(seed=2)),
            ],
            exchange_seconds=30.0,
        )
        scheduler = LossScheduler()
        for label in ("vol1", "vol2", "vol1"):
            library.mount(label)
            cartridge = library.cartridge(label)
            batch = [
                Request(int(s))
                for s in rng.choice(
                    cartridge.geometry.total_segments, 12, replace=False
                )
            ]
            schedule = scheduler.schedule(
                cartridge.model, library.drive.position, batch
            )
            result = execute_schedule(library.drive, schedule)
            assert result.request_count == 12
        # Two exchanges + one remount of vol1; clock advanced past the
        # pure drive time.
        assert library.clock_seconds > 90.0

    def test_fresh_mounts_start_at_bot(self):
        library = TapeLibrary([Cartridge("v", tiny_tape(seed=3))])
        library.mount("v")
        library.drive.locate(100)
        library.unmount()
        library.mount("v")
        assert library.drive.position == 0


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
