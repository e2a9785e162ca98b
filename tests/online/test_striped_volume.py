"""Replicated striped volumes and the degraded-read coordinator.

The placement tests pin the rotated-replica layout (losing one
cartridge costs exactly one copy of each unit, never two) and the
validation surface added to :class:`StripeMapping`.  The coordinator
tests drive a real :class:`MultiDriveSystem` through the coordinator's
own serving surface and check the durability contract the chaos sweep
gates on: every logical read ends either completed or surfaced as
failed — ``lost`` is zero by construction, with or without faults.
"""

from __future__ import annotations

import pytest

from repro.exceptions import LibraryError, SegmentOutOfRange, UnknownTape
from repro.geometry import tiny_tape
from repro.library import Cartridge, LibraryRequest, MultiDriveSystem
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


def read(coordinator, arrival_seconds, logical_segment, length=1):
    """A logical read of the coordinator's volume."""
    [label] = coordinator.labels()
    return LibraryRequest(
        arrival_seconds, label, logical_segment, length=length
    )


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
        coordinator.run(
            read(
                coordinator,
                60.0 * k,
                (k * 3) % (volume.logical_total - STRIPE_UNIT),
                length=1 + k % STRIPE_UNIT,
            )
            for k in range(10)
        )
        assert coordinator.submitted == 10
        assert coordinator.completed == 10
        assert coordinator.lost == 0
        assert coordinator.failed == []
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
        coordinator.begin()
        coordinator.submit(read(coordinator, 0.0, fitted.logical_total - 1))
        with pytest.raises(SegmentOutOfRange):
            coordinator.submit(
                read(coordinator, 0.0, oversize.logical_total - 1)
            )
        coordinator.finish()
        assert coordinator.completed == 1
        assert coordinator.lost == 0

    def test_read_with_only_its_later_unit_off_tape_issues_nothing(self):
        # Oversize volume again: a two-unit read whose first unit is on
        # tape and whose second is not.  The whole read is refused
        # before either sub-request reaches the library.
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
        totals = {t.label: t.geometry.total_segments for t in tapes}

        def on_tape(unit):
            label, start = oversize.unit_location(unit, 0)
            return start + STRIPE_UNIT <= totals[label]

        def off_tape(unit):
            label, start = oversize.unit_location(unit, 0)
            return start >= totals[label]

        unit = next(
            u for u in range(1, oversize.total_units)
            if on_tape(u - 1) and off_tape(u)
        )
        system = make_system(tapes)
        coordinator = StripedReadCoordinator(system, oversize)
        coordinator.begin()
        with pytest.raises(SegmentOutOfRange):
            coordinator.submit(
                read(coordinator, 0.0, unit * STRIPE_UNIT - 1, length=2)
            )
        assert system.submitted == 0
        assert coordinator.submitted == 0
        coordinator.finish()
        assert system.lost == 0
        assert coordinator.lost == 0

    def test_unknown_volume_label_rejected(self):
        tapes = shelf()
        coordinator = StripedReadCoordinator(
            make_system(tapes), striped_volume(tapes)
        )
        assert coordinator.labels() == ["vol0+vol1+vol2+vol3"]
        with pytest.raises(UnknownTape):
            coordinator.check(LibraryRequest(0.0, "vol0", 0))


class TestCoordinatorDegradedPath:
    def test_certain_faults_surface_every_read(self):
        # read_fault_probability=1.0: every attempt on every replica
        # fails, so each sub-request degrades through the replica
        # chain and the read ends in failed — surfaced, not
        # lost.
        tapes = shelf()
        volume = striped_volume(tapes, stripe_unit=STRIPE_UNIT,
                                replicas=2)
        system = make_system(
            tapes, fault_plan=FaultPlan(read_fault_probability=1.0)
        )
        coordinator = StripedReadCoordinator(system, volume)
        coordinator.run(
            read(coordinator, 120.0 * k, k * STRIPE_UNIT)
            for k in range(4)
        )
        assert coordinator.lost == 0
        assert len(coordinator.failed) == 4
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
        coordinator.run(
            read(
                coordinator,
                90.0 * k,
                (k * 5) % (volume.logical_total - STRIPE_UNIT),
                length=1 + k % 3,
            )
            for k in range(20)
        )
        assert coordinator.lost == 0
        assert (
            coordinator.completed + len(coordinator.failed)
            == coordinator.submitted
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
        coordinator.run([read(coordinator, 0.0, 0)])
        assert coordinator.lost == 0
        assert len(coordinator.failed) == 1
        assert coordinator.degraded_reads == 0
        assert coordinator.repairs_started == 0
