"""The cached online system (HSM front-end) on one drive, one tape."""

import pytest

from repro.cache import CachedLibrarySystem, GDSFPolicy, SegmentCache
from repro.geometry import tiny_tape
from repro.library import label_requests
from repro.online import BatchPolicy
from repro.workload import TimedRequest, ZipfArrivals, ZipfWorkload


@pytest.fixture()
def tape():
    return tiny_tape(seed=5)


@pytest.fixture()
def cached(single_drive, tape):
    """Builder: the staging tier over the single-drive system."""

    def build(policy=None, **tier_config):
        system = single_drive(tape, policy=policy or BatchPolicy())
        return CachedLibrarySystem(system=system, **tier_config)

    return build


def skewed_requests(tape, horizon_seconds=2 * 3600.0):
    workload = ZipfWorkload(
        total_segments=tape.total_segments,
        alpha=0.9,
        universe=80,
        seed=2,
    )
    stream = ZipfArrivals(
        rate_per_hour=300.0, workload=workload, seed=3
    ).batch(horizon_seconds)
    return label_requests("tape", stream)


class TestCachedSystem:
    def test_services_every_request(self, tape, cached):
        requests = skewed_requests(tape)
        system = cached(
            policy=BatchPolicy(max_batch=16), cache=SegmentCache(32)
        )
        stats = system.run(requests)
        assert stats.count == len(requests)
        assert system.cache_stats.lookups == len(requests)

    def test_hits_complete_at_arrival(self, cached):
        system = cached(cache=SegmentCache(8))
        system.cache.admit(42)
        stats = system.run(label_requests("tape", [TimedRequest(1.0, 42)]))
        assert system.cache_stats.hits == 1
        assert stats.mean_seconds == 0.0

    def test_misses_are_staged_for_reuse(self, cached):
        system = cached(cache=SegmentCache(16))
        system.run(
            label_requests(
                "tape", [TimedRequest(0.0, 7), TimedRequest(5000.0, 7)]
            )
        )
        assert system.cache_stats.misses == 1
        assert system.cache_stats.hits == 1

    def test_beats_uncached_baseline_on_skewed_stream(
        self, tape, single_drive, cached
    ):
        requests = skewed_requests(tape)
        baseline = single_drive(tape, policy=BatchPolicy(max_batch=16))
        base_stats = baseline.run(list(requests))
        tier = cached(
            policy=BatchPolicy(max_batch=16),
            cache=SegmentCache(16, policy=GDSFPolicy()),
        )
        cached_stats = tier.run(list(requests))
        assert tier.cache_stats.hits > 0
        assert cached_stats.mean_seconds < base_stats.mean_seconds

    def test_prefetch_toggle(self, tape, cached):
        requests = skewed_requests(tape, horizon_seconds=3600.0)
        with_prefetch = cached(
            policy=BatchPolicy(max_batch=16),
            cache=SegmentCache(64),
            prefetch=True,
        )
        with_prefetch.run(list(requests))
        without = cached(
            policy=BatchPolicy(max_batch=16),
            cache=SegmentCache(64),
            prefetch=False,
        )
        without.run(list(requests))
        assert without.cache_stats.prefetch_insertions == 0
        assert (
            with_prefetch.cache_stats.prefetch_insertions
            >= without.cache_stats.prefetch_insertions
        )

    def test_multisegment_requests(self, cached):
        system = cached(cache=SegmentCache(32))
        system.run(
            label_requests(
                "tape",
                [
                    TimedRequest(0.0, 10, length=4),
                    TimedRequest(5000.0, 10, length=4),
                ],
            )
        )
        assert system.cache_stats.hits == 1
        assert system.cache_stats.hit_segments == 4

    def test_byte_accounting(self, cached):
        system = cached(cache=SegmentCache(32))
        system.run(
            label_requests(
                "tape", [TimedRequest(0.0, 3), TimedRequest(5000.0, 3)]
            )
        )
        stats = system.cache_stats
        assert stats.hit_bytes == 32 * 1024
        assert stats.miss_bytes == 32 * 1024
        assert stats.byte_hit_rate == pytest.approx(0.5)


class TestCausality:
    """A hit may only serve data the tape has already read."""

    def test_no_hit_completes_before_its_staging_batch_read(
        self, tape, cached
    ):
        # A small hot set at a high rate: requests for segments of the
        # running batch keep arriving while that batch still executes.
        workload = ZipfWorkload(
            total_segments=tape.total_segments,
            alpha=0.9,
            universe=24,
            seed=5,
        )
        requests = label_requests(
            "tape",
            ZipfArrivals(
                rate_per_hour=900.0, workload=workload, seed=6
            ).batch(3 * 3600.0),
        )
        tier = cached(
            policy=BatchPolicy(max_batch=16),
            cache=SegmentCache(64),
            prefetch=False,
        )
        # When the tape first finished reading each segment, and when
        # each cache hit completed.
        read_at: dict[int, float] = {}
        hits: list[tuple[float, int]] = []

        def on_completion(request, completion_seconds, drive):
            if drive == -1:
                hits.append((completion_seconds, request.segment))
            else:
                first = read_at.get(request.segment, completion_seconds)
                read_at[request.segment] = min(first, completion_seconds)

        tier.completion_listeners.append(on_completion)
        tier.run(requests)
        assert len(hits) > 20
        for completion_seconds, segment in hits:
            assert segment in read_at
            assert read_at[segment] <= completion_seconds
