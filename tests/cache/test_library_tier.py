"""CachedLibrarySystem: the staging tier injected over the library."""

import pytest

from repro.cache import CachedLibrarySystem, SegmentCache
from repro.exceptions import SegmentOutOfRange, UnknownTape
from repro.geometry import tiny_tape
from repro.library import (
    Cartridge,
    LibraryRequest,
    MultiDriveSystem,
    poisson_library_stream,
)
from repro.obs import EventBus
from repro.serve import Gateway, ServeConfig, ServeRequest, TenantConfig


def shelf(count=2):
    return [
        Cartridge(f"tape-{index}", tiny_tape(seed=index + 1))
        for index in range(count)
    ]


def stream(cartridges, seed=3, rate=240.0):
    return poisson_library_stream(
        [c.label for c in cartridges],
        rate_per_hour=rate,
        total_segments=cartridges[0].geometry.total_segments,
        seed=seed,
    )


def make_tier(cartridges=None, drives=2, **kwargs):
    cartridges = cartridges or shelf()
    return CachedLibrarySystem(
        system=MultiDriveSystem(cartridges, drives=drives), **kwargs
    )


class TestValidation:
    def test_rejects_unknown_label(self):
        tier = make_tier()
        with pytest.raises(UnknownTape):
            tier.run(
                [
                    LibraryRequest(
                        arrival_seconds=0.0, label="tape-99", segment=0
                    )
                ]
            )

    def test_read_past_its_tape_cannot_alias_the_next(self):
        # The cache keys tape b's segments right after tape a's, so a
        # read past a's end would land on b's keys.  The library's own
        # check refuses it at submit, before any lookup.
        cartridges = shelf()
        tier = make_tier(cartridges, drives=1, prefetch=False)
        total_a = cartridges[0].geometry.total_segments
        tier.begin()
        tier.submit(
            LibraryRequest(
                arrival_seconds=0.0, label="tape-1", segment=5
            )
        )
        with pytest.raises(SegmentOutOfRange):
            tier.submit(
                LibraryRequest(
                    arrival_seconds=50_000.0,
                    label="tape-0",
                    segment=total_a + 5,
                )
            )
        tier.finish()
        assert tier.hits == 0
        assert tier.submitted == tier.completed == 1
        assert tier.lost == 0


class TestServing:
    def test_nothing_lost_and_everything_recorded(self):
        cartridges = shelf()
        requests = stream(cartridges)
        tier = make_tier(cartridges)
        stats = tier.run(requests)
        assert tier.lost == 0
        assert stats.count + len(tier.failed) == len(requests)
        assert tier.submitted == len(requests)

    def test_repeat_accesses_hit_the_cache(self):
        cartridges = shelf(1)
        hot = [
            LibraryRequest(
                arrival_seconds=float(index * 30),
                label="tape-0",
                segment=5,
            )
            for index in range(10)
        ]
        tier = make_tier(cartridges, drives=1)
        tier.run(hot)
        assert tier.hits > 0
        assert tier.cache_stats.hits == tier.hits

    def test_hits_complete_at_disk_latency(self):
        cartridges = shelf(1)
        requests = [
            LibraryRequest(
                arrival_seconds=0.0, label="tape-0", segment=9
            ),
            LibraryRequest(
                arrival_seconds=10_000.0, label="tape-0", segment=9
            ),
        ]
        outcomes = []
        tier = make_tier(cartridges, drives=1)
        tier.completion_listeners.append(
            lambda request, seconds, drive: outcomes.append(
                (request.arrival_seconds, seconds, drive)
            )
        )
        tier.run(requests)
        assert tier.hits == 1
        # Disk latency is negligible against tape: a hit completes at
        # its lookup instant and reports drive -1.
        hit = [o for o in outcomes if o[2] == -1]
        assert hit == [(10_000.0, 10_000.0, -1)]

    def test_same_segment_on_different_tapes_does_not_collide(self):
        """Global key space: tape-0/seg-5 must not hit for tape-1/seg-5."""
        cartridges = shelf()
        requests = [
            LibraryRequest(
                arrival_seconds=0.0, label="tape-0", segment=5
            ),
            LibraryRequest(
                arrival_seconds=50_000.0, label="tape-1", segment=5
            ),
        ]
        tier = make_tier(
            cartridges,
            drives=1,
            cache=SegmentCache(4),
            prefetch=False,
        )
        tier.run(requests)
        assert tier.hits == 0

    def test_cache_hit_event_carries_sentinel_drive(self):
        bus = EventBus()
        completions = bus.collect("request.complete")
        cartridges = shelf(1)
        system = MultiDriveSystem(cartridges, drives=1, bus=bus)
        tier = CachedLibrarySystem(system=system)
        tier.run(
            [
                LibraryRequest(
                    arrival_seconds=float(index * 5000),
                    label="tape-0",
                    segment=77,
                )
                for index in range(3)
            ]
        )
        assert tier.hits == 2
        hits = [e for e in completions if e.drive == -1]
        assert len(hits) == 2


class TestGatewayComposition:
    def test_gateway_over_tier_accounts_everything(self):
        cartridges = shelf()
        tier = make_tier(cartridges)
        gateway = Gateway(
            ServeConfig(tenants=(TenantConfig(name="t"),)),
            system=tier,
        )
        requests = [
            ServeRequest(
                arrival_seconds=float(index * 20),
                label=f"tape-{index % 2}",
                segment=(index * 13) % 100,
                tenant="t",
            )
            for index in range(60)
        ]
        report = gateway.run(requests)
        assert report.lost == 0
        assert report.completed + report.failed == 60
        # Hits and misses both flow through the same ledger.
        assert tier.hits + tier.system.submitted == 60
