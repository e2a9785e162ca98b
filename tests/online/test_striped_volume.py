"""Replicated striped volumes and the degraded-read coordinator.

The placement tests pin the rotated-replica layout (losing one
cartridge costs exactly one copy of each unit, never two) and the
validation surface added to :class:`StripeMapping`.  The coordinator
tests drive a real :class:`MultiDriveSystem` through the opened
serving surface and check the durability contract the chaos sweep
gates on: every logical read ends either completed or surfaced as
failed — ``lost`` is zero by construction, with or without faults.
"""

from __future__ import annotations

import pytest

from repro.exceptions import LibraryError, SegmentOutOfRange, UnknownTape
from repro.geometry import tiny_tape
from repro.library import Cartridge, MultiDriveSystem
from repro.online import (
    BatchPolicy,
    StripeMapping,
    StripedReadCoordinator,
    StripedVolume,
    striped_volume,
)
from repro.resilience import FaultPlan
from repro.resilience.policy import ResilienceConfig, RetryPolicy

CARTRIDGES = 4
STRIPE_UNIT = 4


def shelf(count=CARTRIDGES):
    return [
        Cartridge(f"vol{i}", tiny_tape(seed=i + 1)) for i in range(count)
    ]


def make_system(tapes, fault_plan=None):
    """A small library with tight budgets, so faults surface quickly."""
    return MultiDriveSystem(
        tapes,
        drives=2,
        policy=BatchPolicy(max_batch=8),
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=2), max_requeues=0
        ),
        fault_plan=fault_plan,
    )


class TestStripeMappingValidation:
    @pytest.mark.parametrize("field", [
        "drives", "stripe_unit", "units_per_drive",
    ])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_non_positive_dimensions(self, field, bad):
        kwargs = {"drives": 2, "stripe_unit": 2, "units_per_drive": 5}
        kwargs[field] = bad
        with pytest.raises(LibraryError):
            StripeMapping(**kwargs)


class TestStripedVolumePlacement:
    def test_validation(self):
        mapping = StripeMapping(
            drives=3, stripe_unit=2, units_per_drive=4
        )
        with pytest.raises(LibraryError):
            StripedVolume(labels=("a", "b"), mapping=mapping)
        with pytest.raises(LibraryError):
            StripedVolume(labels=("a", "b", "a"), mapping=mapping)
        for replicas in (0, 4):
            with pytest.raises(LibraryError):
                StripedVolume(
                    labels=("a", "b", "c"),
                    mapping=mapping,
                    replicas=replicas,
                )

    def test_primary_replica_matches_the_plain_mapping(self):
        volume = striped_volume(shelf(), stripe_unit=STRIPE_UNIT,
                                replicas=2)
        for logical in range(volume.logical_total):
            drive, physical = volume.mapping.locate(logical)
            assert volume.locate(logical, replica=0) == (
                volume.labels[drive], physical,
            )

    def test_rotation_spreads_copies_over_distinct_cartridges(self):
        volume = striped_volume(shelf(), stripe_unit=STRIPE_UNIT,
                                replicas=3)
        for unit in range(volume.total_units):
            labels = {
                volume.unit_location(unit, r)[0]
                for r in range(volume.replicas)
            }
            # Rotated placement: every copy of a unit is on a
            # different cartridge, so one cartridge loss costs at most
            # one copy.
            assert len(labels) == volume.replicas

    def test_replica_regions_never_collide(self):
        volume = striped_volume(shelf(), stripe_unit=STRIPE_UNIT,
                                replicas=2)
        placements = {}
        for unit in range(volume.total_units):
            for replica in range(volume.replicas):
                spot = volume.unit_location(unit, replica)
                assert spot not in placements, (
                    f"unit {unit} replica {replica} collides with "
                    f"{placements[spot]}"
                )
                placements[spot] = (unit, replica)

    def test_unit_runs_cover_the_range(self):
        volume = striped_volume(shelf(), stripe_unit=STRIPE_UNIT,
                                replicas=2)
        runs = volume.unit_runs(STRIPE_UNIT - 1, STRIPE_UNIT + 2)
        assert sum(run for _, _, run in runs) == STRIPE_UNIT + 2
        assert all(
            0 <= offset and offset + run <= STRIPE_UNIT
            for _, offset, run in runs
        )
        # Crossing a unit boundary splits the read.
        assert len(runs) == 3

    def test_unit_runs_rejects_bad_ranges(self):
        volume = striped_volume(shelf(), stripe_unit=STRIPE_UNIT)
        with pytest.raises(LibraryError):
            volume.unit_runs(0, 0)
        with pytest.raises(SegmentOutOfRange):
            volume.unit_runs(volume.logical_total - 1, 2)

    def test_factory_rejects_oversized_stripes(self):
        tapes = shelf(2)
        huge = min(t.geometry.total_segments for t in tapes) + 1
        with pytest.raises(LibraryError):
            striped_volume(tapes, stripe_unit=huge)
        with pytest.raises(LibraryError):
            striped_volume([], stripe_unit=1)


class TestCoordinatorCleanPath:
    def test_all_reads_complete_without_faults(self):
        tapes = shelf()
        volume = striped_volume(tapes, stripe_unit=STRIPE_UNIT,
                                replicas=2)
        system = make_system(tapes)
        coordinator = StripedReadCoordinator(system, volume)
        system.begin()
        for k in range(10):
            logical = (k * 3) % (volume.logical_total - STRIPE_UNIT)
            coordinator.submit(
                arrival_seconds=60.0 * k,
                logical_segment=logical,
                length=1 + k % STRIPE_UNIT,
            )
        system.finish()
        assert coordinator.reads == 10
        assert coordinator.completed == 10
        assert coordinator.lost == 0
        assert coordinator.failed_reads == []
        assert coordinator.degraded_reads == 0
        assert coordinator.stats.count == 10

    def test_rejects_unknown_cartridges(self):
        tapes = shelf()
        volume = striped_volume(
            tapes + [Cartridge("ghost", tiny_tape(seed=99))],
            stripe_unit=STRIPE_UNIT,
        )
        system = make_system(tapes)
        with pytest.raises(UnknownTape):
            StripedReadCoordinator(system, volume)

    def test_oversize_volume_fails_at_submit(self):
        # A hand-built volume claims more units than its cartridges
        # hold; a read past the real end is refused when it is
        # submitted, not later in the middle of finish().
        tapes = shelf()
        fitted = striped_volume(tapes, stripe_unit=STRIPE_UNIT)
        oversize = StripedVolume(
            labels=fitted.labels,
            mapping=StripeMapping(
                drives=CARTRIDGES,
                stripe_unit=STRIPE_UNIT,
                units_per_drive=fitted.mapping.units_per_drive + 10,
            ),
        )
        system = make_system(tapes)
        coordinator = StripedReadCoordinator(system, oversize)
        system.begin()
        coordinator.submit(0.0, fitted.logical_total - 1)
        with pytest.raises(SegmentOutOfRange):
            coordinator.submit(0.0, oversize.logical_total - 1)
        system.finish()
        assert coordinator.completed == 1


class TestCoordinatorDegradedPath:
    def test_certain_faults_surface_every_read(self):
        # read_fault_probability=1.0: every attempt on every replica
        # fails, so each sub-request degrades through the replica
        # chain and the read ends in failed_reads — surfaced, not
        # lost.
        tapes = shelf()
        volume = striped_volume(tapes, stripe_unit=STRIPE_UNIT,
                                replicas=2)
        system = make_system(
            tapes, fault_plan=FaultPlan(read_fault_probability=1.0)
        )
        coordinator = StripedReadCoordinator(system, volume)
        system.begin()
        for k in range(4):
            coordinator.submit(
                arrival_seconds=120.0 * k,
                logical_segment=k * STRIPE_UNIT,
                length=1,
            )
        system.finish()
        assert coordinator.lost == 0
        assert len(coordinator.failed_reads) == 4
        assert coordinator.completed == 0
        # Each unit fell back to replica 1 before giving up, and the
        # repair it triggered failed on every source too.
        assert coordinator.degraded_reads == 4
        assert coordinator.repairs_started == 4
        assert coordinator.repairs_failed == 4

    def test_partial_faults_keep_the_durability_ledger_balanced(self):
        tapes = shelf()
        volume = striped_volume(tapes, stripe_unit=STRIPE_UNIT,
                                replicas=2)
        system = make_system(
            tapes,
            fault_plan=FaultPlan(
                locate_fault_probability=0.2,
                read_fault_probability=0.2,
                seed=23,
            ),
        )
        coordinator = StripedReadCoordinator(system, volume)
        system.begin()
        for k in range(20):
            logical = (k * 5) % (volume.logical_total - STRIPE_UNIT)
            coordinator.submit(
                arrival_seconds=90.0 * k,
                logical_segment=logical,
                length=1 + k % 3,
            )
        system.finish()
        assert coordinator.lost == 0
        assert (
            coordinator.completed + len(coordinator.failed_reads)
            == coordinator.reads
        )
        assert (
            coordinator.repairs_completed + coordinator.repairs_failed
            <= coordinator.repairs_started
        )

    def test_single_replica_has_no_degraded_fallback(self):
        tapes = shelf()
        volume = striped_volume(tapes, stripe_unit=STRIPE_UNIT,
                                replicas=1)
        system = make_system(
            tapes, fault_plan=FaultPlan(read_fault_probability=1.0)
        )
        coordinator = StripedReadCoordinator(system, volume)
        system.begin()
        coordinator.submit(
            arrival_seconds=0.0, logical_segment=0, length=1
        )
        system.finish()
        assert coordinator.lost == 0
        assert len(coordinator.failed_reads) == 1
        assert coordinator.degraded_reads == 0
        assert coordinator.repairs_started == 0
