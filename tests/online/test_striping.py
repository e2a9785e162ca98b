"""Striped tape arrays, served by the multi-drive library kernel.

A striped array is K cartridges preloaded into K drives of a
:class:`~repro.library.MultiDriveSystem`, with a
:class:`~repro.online.StripedReadCoordinator` over a
:func:`~repro.online.striped_volume` fanning each logical read out to
its cartridge.  ``golden/striped_array_reference.json`` froze the
outputs of the retired off-kernel ``StripedTapeArray`` (per-drive
seconds and request counts, makespan) on tiny-tape shelves; the kernel
path must reproduce them with ``==``.  The file has no regeneration
path: it records a deleted implementation.
"""

import json
from pathlib import Path

import pytest

from repro.exceptions import LibraryError, SegmentOutOfRange
from repro.geometry import tiny_tape
from repro.library import Cartridge, MultiDriveSystem
from repro.online import (
    BatchPolicy,
    StripeMapping,
    StripedReadCoordinator,
    striped_volume,
)
from repro.scheduling.base import get_scheduler

REFERENCE_PATH = (
    Path(__file__).parent / "golden" / "striped_array_reference.json"
)

#: Arrival spacing of back-to-back batches: longer than any tiny-tape
#: batch, so each batch starts with every drive idle and its head
#: where the previous batch left it.
BATCH_GAP_SECONDS = 100_000.0


def shelf(count, **tape):
    return [
        Cartridge(f"vol{i}", tiny_tape(seed=i, **tape))
        for i in range(count)
    ]


def serve(cartridges, batches, stripe_unit=1, scheduler=None):
    """Serve logical batches on a striped array of ``cartridges``.

    Batch ``b`` arrives at ``b * BATCH_GAP_SECONDS``.  Returns the
    system, the coordinator, and per batch the tuple
    ``(drive_seconds, drive_requests)`` indexed by drive, where an idle
    drive reads exactly ``0.0`` seconds and 0 requests.
    """
    drives = len(cartridges)
    system = MultiDriveSystem(
        cartridges,
        drives=drives,
        preload=[c.label for c in cartridges],
        scheduler=scheduler,
        policy=BatchPolicy(max_batch=max(len(b) for b in batches)),
    )
    volume = striped_volume(cartridges, stripe_unit=stripe_unit)
    coordinator = StripedReadCoordinator(system, volume)
    system.begin()
    for index, batch in enumerate(batches):
        for logical in batch:
            coordinator.submit(index * BATCH_GAP_SECONDS, int(logical))
    system.finish()
    assert coordinator.lost == 0
    per_batch = []
    for index in range(len(batches)):
        seconds = [0.0] * drives
        requests = [0] * drives
        for record in system.batches:
            if record.start_seconds == index * BATCH_GAP_SECONDS:
                # One scheduled sub-batch per drive and batch.
                assert requests[record.drive] == 0
                seconds[record.drive] = record.execution_seconds
                requests[record.drive] = record.size
        assert max(seconds) < BATCH_GAP_SECONDS
        per_batch.append((tuple(seconds), tuple(requests)))
    assert sum(sum(r) for _, r in per_batch) == sum(map(len, batches))
    return system, coordinator, per_batch


@pytest.fixture()
def array():
    return shelf(3)


def reference_cases():
    return json.loads(REFERENCE_PATH.read_text())["cases"]


class TestStripeMapping:
    def test_round_robin(self):
        mapping = StripeMapping(drives=3, stripe_unit=2,
                                units_per_drive=10)
        # Unit 0 -> drive 0, unit 1 -> drive 1, unit 2 -> drive 2,
        # unit 3 -> drive 0 again.
        assert mapping.locate(0) == (0, 0)
        assert mapping.locate(1) == (0, 1)
        assert mapping.locate(2) == (1, 0)
        assert mapping.locate(4) == (2, 0)
        assert mapping.locate(6) == (0, 2)

    def test_bijective(self):
        mapping = StripeMapping(drives=4, stripe_unit=3,
                                units_per_drive=7)
        seen = set()
        for logical in range(mapping.logical_total):
            drive, physical = mapping.locate(logical)
            assert mapping.logical_of(drive, physical) == logical
            seen.add((drive, physical))
        assert len(seen) == mapping.logical_total

    def test_out_of_range(self):
        mapping = StripeMapping(drives=2, stripe_unit=1,
                                units_per_drive=5)
        with pytest.raises(SegmentOutOfRange):
            mapping.locate(mapping.logical_total)


class TestStripedTapeArray:
    def test_validation(self):
        with pytest.raises(LibraryError):
            striped_volume([])
        with pytest.raises(LibraryError):
            striped_volume(
                [Cartridge("v", tiny_tape(seed=1))], stripe_unit=0
            )

    def test_logical_capacity(self, array):
        smallest = min(c.geometry.total_segments for c in array)
        volume = striped_volume(array, stripe_unit=4)
        assert volume.logical_total == 3 * (smallest // 4) * 4

    def test_split_covers_batch(self, array, rng):
        volume = striped_volume(array, stripe_unit=4)
        batch = rng.choice(volume.logical_total, 60, replace=False)
        _, _, [(_, requests)] = serve(array, [batch], stripe_unit=4)
        assert sum(requests) == 60
        # Roughly balanced across drives under uniform load.
        for count in requests:
            assert 8 <= count <= 35

    def test_service_batch(self, array, rng):
        volume = striped_volume(array, stripe_unit=4)
        batch = rng.choice(volume.logical_total, 45, replace=False)
        system, coordinator, [(seconds, requests)] = serve(
            array, [batch], stripe_unit=4
        )
        makespan = coordinator.stats.max_seconds
        assert makespan == max(seconds)
        assert sum(requests) == 45
        busy = sum(bay.busy_seconds for bay in system.bays)
        assert 0.0 < busy / (3 * makespan) <= 1.0

    def test_parallelism_beats_single_drive(self, rng):
        # The same workload on a 1-drive "array" vs a 3-drive array.
        single = shelf(1, tracks=6)
        triple = shelf(3, tracks=6)
        size = 45
        batch = rng.choice(
            striped_volume(single).logical_total, size, replace=False
        )
        solo_time = serve(single, [batch])[1].stats.max_seconds

        batch3 = rng.choice(
            striped_volume(triple).logical_total, size, replace=False
        )
        triple_time = serve(triple, [batch3])[1].stats.max_seconds
        # Better than single, worse than perfect 3x (smaller per-drive
        # batches schedule worse -- the Figure 4 effect).
        assert triple_time < solo_time
        assert triple_time > solo_time / 3.5

    def test_sequential_batches_carry_head_positions(self, array, rng):
        volume = striped_volume(array, stripe_unit=4)
        first = rng.choice(volume.logical_total, 30, replace=False)
        second = rng.choice(volume.logical_total, 30, replace=False)
        system, _, [_, (seconds, _)] = serve(
            array, [first, second], stripe_unit=4
        )
        assert max(seconds) > 0
        # Each tape stays in its drive: no exchange between batches.
        assert system.exchanges == 0

    def test_empty_drive_sub_batch(self, array):
        # A batch confined to one drive's stripe units leaves the other
        # drives idle: they run no batch and the makespan is the busy
        # drive's time.
        mapping = striped_volume(array, stripe_unit=4).mapping
        drive0_only = [
            logical
            for logical in range(0, 12 * mapping.stripe_unit)
            if mapping.locate(logical)[0] == 0
        ]
        system, coordinator, [(seconds, requests)] = serve(
            array, [drive0_only], stripe_unit=4
        )
        assert requests == (len(drive0_only), 0, 0)
        assert seconds[1:] == (0.0, 0.0)
        assert coordinator.stats.max_seconds == seconds[0]
        assert [bay.batches for bay in system.bays] == [1, 0, 0]
        # One busy drive out of three.
        busy = sum(bay.busy_seconds for bay in system.bays)
        assert busy / (3 * seconds[0]) == pytest.approx(1 / 3)

    def test_custom_scheduler(self, rng):
        tapes = shelf(2)
        batch = rng.choice(
            striped_volume(tapes).logical_total, 24, replace=False
        )
        fifo = serve(tapes, [batch], scheduler=get_scheduler("FIFO"))
        loss = serve(tapes, [batch])
        # The injected scheduler is actually used: unscheduled FIFO
        # order is slower than the default LOSS on the same batch.
        assert {r.algorithm for r in fifo[0].batches} == {"FIFO"}
        assert loss[1].stats.max_seconds < fifo[1].stats.max_seconds


class TestFrozenReference:
    @pytest.mark.parametrize("name", sorted(reference_cases()))
    def test_kernel_matches_the_retired_array(self, name):
        case = reference_cases()[name]
        batches = [batch["logical"] for batch in case["batches"]]
        _, coordinator, per_batch = serve(
            shelf(case["drives"]),
            batches,
            stripe_unit=case["stripe_unit"],
            scheduler=get_scheduler(case["scheduler"]),
        )
        for frozen, (seconds, requests) in zip(
            case["batches"], per_batch, strict=True
        ):
            assert list(seconds) == frozen["drive_seconds"]
            assert list(requests) == frozen["drive_requests"]
            assert max(seconds) == frozen["makespan_seconds"]
        if len(batches) == 1:
            assert coordinator.stats.max_seconds == (
                case["batches"][0]["makespan_seconds"]
            )
