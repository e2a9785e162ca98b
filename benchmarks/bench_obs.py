"""Telemetry overhead benchmarks.

The observability layer's contract is that an *uninstrumented* run —
``bus=None``, the default — pays nothing beyond one ``is not None``
test per potential event.  The two pytest-benchmark cases track the
online system with and without full instrumentation (recorder plus
standard metrics) so the gap is visible in benchmark reports, and the
timed guard pins the contract's direction: the default no-bus path
must never be slower than a fully instrumented run (beyond timing
noise) — if it is, the default path is doing telemetry work it
should not.
"""

import pytest

from repro.geometry import generate_tape
from repro.obs import EventBus, TraceRecorder, bind_standard_metrics
from repro.library import Cartridge, MultiDriveSystem, label_requests
from repro.online import BatchPolicy
from repro.workload import PoissonArrivals

RATE_PER_HOUR = 240.0
HORIZON_SECONDS = 4 * 3600.0


@pytest.fixture(scope="module")
def setup():
    tape = generate_tape(seed=1)
    requests = label_requests(
        "tape",
        PoissonArrivals(
            rate_per_hour=RATE_PER_HOUR,
            total_segments=tape.total_segments,
            seed=3,
        ).batch(HORIZON_SECONDS),
    )
    return tape, requests


def run_system(tape, requests, bus=None):
    system = MultiDriveSystem(
        [Cartridge("tape", tape)], drives=1, preload=["tape"],
        policy=BatchPolicy(max_batch=32), bus=bus,
    )
    return system.run(requests)


def test_uninstrumented_run(benchmark, setup):
    tape, requests = setup
    stats = benchmark(run_system, tape, requests)
    assert stats.count == len(requests)


def test_fully_instrumented_run(benchmark, setup):
    tape, requests = setup

    def instrumented():
        bus = EventBus()
        TraceRecorder(bus)
        bind_standard_metrics(bus)
        return run_system(tape, requests, bus=bus)

    stats = benchmark(instrumented)
    assert stats.count == len(requests)


def test_no_bus_overhead_is_negligible(setup):
    """Timed guard (no pytest-benchmark): the no-bus default must not
    be slower than a fully instrumented run — its only addition over
    the pre-telemetry code is ``is not None`` tests."""
    import time

    tape, requests = setup
    run_system(tape, requests)  # warm caches out of the measurement

    def timed(bus_factory):
        best = float("inf")
        for _ in range(3):
            bus = bus_factory()
            start = time.perf_counter()
            run_system(tape, requests, bus=bus)
            best = min(best, time.perf_counter() - start)
        return best

    plain = timed(lambda: None)

    def full_bus():
        bus = EventBus()
        TraceRecorder(bus)
        bind_standard_metrics(bus)
        return bus

    instrumented = timed(full_bus)
    # The no-bus run must not be slower than full instrumentation by
    # more than timing noise; anything else means the default path is
    # doing telemetry work it should not.
    assert plain <= instrumented * 1.10
