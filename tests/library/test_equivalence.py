"""Single-drive equivalence: the kernel reproduces the paper's loop.

A 1-drive, 1-cartridge :class:`~repro.library.MultiDriveSystem` with
the cartridge preloaded must be **bit-identical** to the paper's
single-drive serving loop — same response-time samples, same batch
records field for field, same failure set, requeue count and degraded
flag.  That loop used to live in a class of its own; before it was
deleted its outputs on every case below were frozen in
``golden/single_drive_reference.json``, which now stands in for it.
This is the contract that lets the kernel claim it *is* the paper's
serving loop rather than an approximation of it.

The comparison is exact (``==`` on floats; JSON round-trips float64
exactly): the path is deterministic, so any divergence is an ordering
or accounting bug in the event kernel, not noise.  The reference has
no regeneration switch — the code that produced it is gone, so a
mismatch is a regression to fix, never a fixture to rewrite.  A fixed
workload is additionally frozen as ``golden/equivalence.json``
(regenerate with ``--regen-golden`` after an intentional change).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    CachedLibrarySystem,
    CostThresholdAdmission,
    SegmentCache,
)
from repro.geometry import tiny_tape
from repro.library import (
    Cartridge,
    LibraryRequest,
    MultiDriveSystem,
    label_requests,
)
from repro.online import BatchPolicy
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.scheduling import get_scheduler
from repro.workload.arrivals import ZipfArrivals
from repro.workload.zipf import ZipfWorkload

GOLDEN_PATH = Path(__file__).parent / "golden" / "equivalence.json"
REFERENCE_PATH = (
    Path(__file__).parent / "golden" / "single_drive_reference.json"
)

LABEL = "only"


@cache
def reference_cases() -> dict:
    """The frozen single-drive outputs, keyed by case name."""
    return json.loads(REFERENCE_PATH.read_text())["cases"]


def workload(seed, count, horizon_seconds, total_segments):
    """A deterministic request stream (arrival-sorted, uniform targets)."""
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, horizon_seconds, size=count))
    segments = rng.integers(0, total_segments, size=count)
    return [
        LibraryRequest(
            arrival_seconds=float(arrivals[k]),
            label=LABEL,
            segment=int(segments[k]),
        )
        for k in range(count)
    ]


def one_drive_system(geometry, algorithm="LOSS", policy=None, **kwargs):
    """The paper's setting: one drive, its one tape preloaded."""
    return MultiDriveSystem(
        [Cartridge(LABEL, geometry)],
        drives=1,
        scheduler=get_scheduler(algorithm),
        policy=policy or BatchPolicy(max_batch=16),
        preload=[LABEL],
        **kwargs,
    )


def run_library(requests, geometry, **kwargs):
    """Serve a workload on the 1-drive preloaded library."""
    system = one_drive_system(geometry, **kwargs)
    stats = system.run(requests)
    return system, stats


def outcome(system, stats) -> dict:
    """A run in the reference's shape (bay and tape checked apart)."""
    batches = []
    for record in system.batches:
        assert record.drive == 0
        assert record.label == LABEL
        fields = asdict(record)
        del fields["drive"], fields["label"]
        batches.append(fields)
    return {
        "samples": list(stats.samples),
        "batches": batches,
        "failed": [item.segment for item in system.failed],
        "requeues": system.requeues,
        "degraded": system.degraded,
    }


def assert_matches_reference(name, system, stats):
    assert system.lost == 0
    assert outcome(system, stats) == reference_cases()[name], (
        f"1-drive library diverged from the single-drive reference "
        f"on case {name!r}"
    )


class TestSingleDriveEquivalence:
    @given(workload_seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=12, deadline=None)
    def test_samples_are_bit_identical(self, workload_seed):
        geometry = tiny_tape(seed=3)
        requests = workload(
            workload_seed, count=30, horizon_seconds=2000.0,
            total_segments=geometry.total_segments,
        )
        multi, multi_stats = run_library(requests, geometry)
        assert_matches_reference(
            f"seed-{workload_seed}", multi, multi_stats
        )
        assert multi.exchanges == 0

    def test_every_recorded_seed_matches(self):
        geometry = tiny_tape(seed=3)
        for workload_seed in range(41):
            requests = workload(
                workload_seed, count=30, horizon_seconds=2000.0,
                total_segments=geometry.total_segments,
            )
            multi, multi_stats = run_library(requests, geometry)
            assert_matches_reference(
                f"seed-{workload_seed}", multi, multi_stats
            )

    @pytest.mark.parametrize("algorithm", ["FIFO", "SLTF", "SCAN", "LOSS"])
    def test_holds_for_every_scheduler(self, algorithm):
        geometry = tiny_tape(seed=5)
        requests = workload(
            7, count=24, horizon_seconds=1500.0,
            total_segments=geometry.total_segments,
        )
        multi, multi_stats = run_library(
            requests, geometry, algorithm=algorithm
        )
        assert_matches_reference(
            f"scheduler-{algorithm}", multi, multi_stats
        )
        assert {r.algorithm for r in multi.batches} == {algorithm}

    def test_holds_under_deadline_batching(self):
        geometry = tiny_tape(seed=3)
        policy = BatchPolicy(
            max_batch=8, max_wait_seconds=120.0, flush_when_idle=False
        )
        requests = workload(
            11, count=30, horizon_seconds=2500.0,
            total_segments=geometry.total_segments,
        )
        multi, multi_stats = run_library(
            requests, geometry, policy=policy
        )
        assert_matches_reference("deadline", multi, multi_stats)

    def test_holds_under_fault_injection(self):
        # _derived_seed(seed, 0, 0) == seed: the preloaded drive draws
        # the plan's own fault stream, as the reference did.
        geometry = tiny_tape(seed=3)
        plan = FaultPlan(locate_fault_probability=0.3, seed=17)
        requests = workload(
            13, count=24, horizon_seconds=2000.0,
            total_segments=geometry.total_segments,
        )
        multi, multi_stats = run_library(
            requests, geometry, fault_plan=plan
        )
        assert_matches_reference("locate-faults", multi, multi_stats)
        assert any(r.fault_seconds > 0 for r in multi.batches)

    def test_holds_under_read_faults_and_resets(self):
        geometry = tiny_tape(seed=3)
        plan = FaultPlan(0.2, 0.05, 0.02, seed=29)
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1, seed=29), max_requeues=1
        )
        requests = workload(
            31, count=60, horizon_seconds=3000.0,
            total_segments=geometry.total_segments,
        )
        multi, multi_stats = run_library(
            requests, geometry, fault_plan=plan, resilience=resilience
        )
        assert_matches_reference(
            "read-faults-resets", multi, multi_stats
        )
        # The case exercises what it claims: surfaced failures after a
        # spent requeue budget, and requeues that later completed.
        assert multi.failed and multi.requeues > len(multi.failed)
        assert multi_stats.count + len(multi.failed) == len(requests)

    def test_holds_when_the_execution_budget_degrades(self):
        geometry = tiny_tape(seed=3)
        requests = workload(
            37, count=30, horizon_seconds=2000.0,
            total_segments=geometry.total_segments,
        )
        multi, multi_stats = run_library(
            requests, geometry,
            resilience=ResilienceConfig(execution_budget_seconds=200.0),
        )
        assert_matches_reference(
            "execution-budget", multi, multi_stats
        )
        assert multi.degraded
        assert multi.batches[-1].algorithm == "SORT"

    def test_batch_records_match_field_for_field(self):
        geometry = tiny_tape(seed=3)
        requests = workload(
            19, count=20, horizon_seconds=1500.0,
            total_segments=geometry.total_segments,
        )
        multi, multi_stats = run_library(requests, geometry)
        assert_matches_reference("batch-records", multi, multi_stats)
        for record in multi.batches:
            assert record.phase_seconds == pytest.approx(
                record.execution_seconds
            )


class TestCacheOffEquivalence:
    """cache-sim's cache-off row, in miniature: a Zipf stream."""

    def _zipf_stream(self, geometry):
        stream = ZipfArrivals(
            rate_per_hour=240.0,
            workload=ZipfWorkload(
                total_segments=geometry.total_segments,
                alpha=0.8,
                universe=120,
                seed=41,
                placement="clustered",
            ),
            seed=42,
        ).batch(3 * 3600.0)
        return label_requests(LABEL, stream)

    def test_bare_library_matches_the_cache_off_reference(self):
        geometry = tiny_tape(seed=3)
        multi, multi_stats = run_library(
            self._zipf_stream(geometry), geometry,
            policy=BatchPolicy(max_batch=24),
        )
        assert_matches_reference("cache-off", multi, multi_stats)

    def test_a_tier_that_never_stages_matches_it_too(self):
        # A cache that admits nothing (and no prefetch) never hits, so
        # the tier must be transparent: the backend serves the exact
        # reference stream and the tier reports the same samples.
        geometry = tiny_tape(seed=3)
        system = one_drive_system(geometry, policy=BatchPolicy(max_batch=24))
        tier = CachedLibrarySystem(
            system=system,
            cache=SegmentCache(
                64, admission=CostThresholdAdmission(math.inf)
            ),
            prefetch=False,
        )
        stats = tier.run(self._zipf_stream(geometry))
        assert tier.hits == 0
        assert_matches_reference("cache-off", system, system.stats)
        assert stats.samples == system.stats.samples


class TestGoldenEquivalence:
    """One fixed workload's samples, frozen bit-for-bit."""

    def _records(self):
        geometry = tiny_tape(seed=3)
        requests = workload(
            23, count=40, horizon_seconds=3000.0,
            total_segments=geometry.total_segments,
        )
        multi, multi_stats = run_library(requests, geometry)
        return json.loads(
            json.dumps(
                {
                    "samples": list(multi_stats.samples),
                    "batch_sizes": [r.size for r in multi.batches],
                    "batch_starts": [
                        r.start_seconds for r in multi.batches
                    ],
                    "makespan_seconds": multi.clock_seconds,
                }
            )
        )

    def test_matches_the_frozen_fixture(self, regen_golden):
        records = self._records()
        if regen_golden:
            GOLDEN_PATH.parent.mkdir(exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(records, indent=1) + "\n"
            )
        if not GOLDEN_PATH.exists():
            pytest.fail(
                f"golden fixture {GOLDEN_PATH} is missing; generate "
                "it with pytest tests/library/test_equivalence.py "
                "--regen-golden"
            )
        frozen = json.loads(GOLDEN_PATH.read_text())
        assert records == frozen, (
            "single-drive equivalence output drifted from its golden "
            "fixture; if intentional, rerun with --regen-golden"
        )


class TestBeyondOneDrive:
    def test_two_drives_beat_one_on_a_two_tape_load(self):
        tapes = [
            Cartridge("a", tiny_tape(seed=1)),
            Cartridge("b", tiny_tape(seed=2)),
        ]
        rng = np.random.default_rng(29)
        requests = [
            LibraryRequest(
                arrival_seconds=float(t),
                label="a" if k % 2 == 0 else "b",
                segment=int(rng.integers(0, 300)),
            )
            for k, t in enumerate(
                np.sort(rng.uniform(0.0, 1200.0, size=24))
            )
        ]
        one = MultiDriveSystem(tapes, drives=1)
        two = MultiDriveSystem(tapes, drives=2)
        slow = one.run(list(requests))
        fast = two.run(list(requests))
        assert fast.mean_seconds < slow.mean_seconds
        assert one.lost == 0 and two.lost == 0
