"""Chaos experiments: fault sweeps against the hardened systems.

``python -m repro chaos`` services a Poisson stream on a one-drive
:class:`~repro.library.MultiDriveSystem` (the tape preloaded) whose
drive is wrapped in a :class:`~repro.resilience.FaultInjector`, at each
fault rate of a sweep.  The headline number is the **eventual completion
ratio** — the fraction of requests that completed after in-place
retries and bounded requeues; the resilience layer's contract is that
it stays 1.0 at any plausible fault rate (a lost request is a bug, not
a statistic).  Response-time percentiles show what the retries cost.

``python -m repro chaos --library`` runs the durability variant on the
full multi-arm library: logical reads on a replicated
:class:`~repro.online.striping.StripedVolume` served by a
:class:`~repro.library.MultiDriveSystem` with media aging
(:class:`~repro.library.MediaAgingModel`), injected drive faults, and
deliberately *tight* retry budgets — so sub-requests really do fail on
individual cartridges and redundancy has to earn its keep.  The sweep
charts durability (completed logical reads), degraded reads, repair
traffic, and tail latency against the replica count.  Two gates:

* **zero silent loss** — every logical read ends as completed or
  surfaced-failed at every redundancy level (``lost == 0``);
* **redundancy protects** — no durability losses at ``replicas >= 2``
  (one surviving rotated copy is enough by construction; losing data
  through redundancy is a coordinator bug).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import print_table
from repro.geometry.generator import generate_tape
from repro.library.aging import MediaAgingModel
from repro.library.cartridge import Cartridge
from repro.library.requests import LibraryRequest, label_requests
from repro.library.system import MultiDriveSystem
from repro.obs.bus import EventBus
from repro.online.batch_queue import BatchPolicy
from repro.online.striping import StripedReadCoordinator, striped_volume
from repro.resilience.injection import FaultPlan
from repro.resilience.policy import ResilienceConfig, RetryPolicy
from repro.scheduling.base import get_scheduler
from repro.workload.arrivals import PoissonArrivals

#: Fault-rate grid when the caller does not pass one.
DEFAULT_FAULT_RATES = (0.0, 0.05, 0.1, 0.2)

#: Replica-count grid of the library durability sweep.
DEFAULT_REPLICAS = (1, 2, 3)

#: Simulated hours per scale (mirrors the trace/cache-sim drivers).
_HORIZON_HOURS = {"quick": 2.0, "full": 8.0, "paper": 24.0}


@dataclass(frozen=True)
class ChaosPoint:
    """One fault rate's outcome."""

    fault_rate: float
    requests: int
    completed: int
    failed: int
    retries: int
    requeues: int
    faults_injected: int
    degraded: bool
    mean_response_seconds: float | None
    p50_response_seconds: float | None
    p90_response_seconds: float | None
    p99_response_seconds: float | None

    @property
    def completion_ratio(self) -> float:
        """Eventually-completed fraction (1.0 = nothing was lost)."""
        if self.requests == 0:
            return 1.0
        return self.completed / self.requests


@dataclass(frozen=True)
class ChaosResult:
    """The sweep, in the tabular-result protocol."""

    label: str
    points: tuple[ChaosPoint, ...]

    def headers(self) -> list[str]:
        """Columns of :meth:`rows`."""
        return [
            "fault rate", "requests", "completed", "failed",
            "completion ratio", "retries", "requeues", "faults",
            "degraded", "mean (s)", "p50 (s)", "p90 (s)", "p99 (s)",
        ]

    def rows(self) -> list[list]:
        """One row per swept fault rate."""
        return [
            [
                point.fault_rate,
                point.requests,
                point.completed,
                point.failed,
                point.completion_ratio,
                point.retries,
                point.requeues,
                point.faults_injected,
                point.degraded,
                point.mean_response_seconds,
                point.p50_response_seconds,
                point.p90_response_seconds,
                point.p99_response_seconds,
            ]
            for point in self.points
        ]

    def to_dict(self) -> list[dict]:
        """Records for export."""
        return [dict(zip(self.headers(), row)) for row in self.rows()]

    @property
    def all_complete(self) -> bool:
        """Did every swept rate eventually complete every request?"""
        return all(
            point.completed == point.requests for point in self.points
        )


def run_point(
    config: ExperimentConfig,
    fault_rate: float,
    read_fault_probability: float = 0.0,
    reset_probability: float = 0.0,
    rate_per_hour: float = 120.0,
    horizon_hours: float | None = None,
    max_attempts: int = 5,
    max_requeues: int = 2,
    max_batch: int = 32,
    algorithm: str = "LOSS",
) -> ChaosPoint:
    """Service one instrumented run at one fault rate."""
    if horizon_hours is None:
        horizon_hours = _HORIZON_HOURS[config.scale]
    tape = generate_tape(seed=config.tape_seed)
    bus = EventBus()
    retries = bus.collect("request.retry")
    faults = bus.collect("fault.injected")
    system = MultiDriveSystem(
        [Cartridge("tape", tape)],
        drives=1,
        preload=["tape"],
        scheduler=get_scheduler(algorithm),
        policy=BatchPolicy(max_batch=max_batch),
        bus=bus,
        resilience=ResilienceConfig(
            retry=RetryPolicy(
                max_attempts=max_attempts, seed=config.workload_seed
            ),
            max_requeues=max_requeues,
        ),
        fault_plan=FaultPlan(
            locate_fault_probability=fault_rate,
            read_fault_probability=read_fault_probability,
            reset_probability=reset_probability,
            seed=config.workload_seed,
        ),
    )
    requests = PoissonArrivals(
        rate_per_hour=rate_per_hour,
        total_segments=tape.total_segments,
        seed=config.workload_seed,
    ).batch(horizon_hours * 3600.0)
    stats = system.run(label_requests("tape", requests))
    has_samples = stats.count > 0
    return ChaosPoint(
        fault_rate=fault_rate,
        requests=len(requests),
        completed=stats.count,
        failed=len(system.failed),
        retries=len(retries),
        requeues=system.requeues,
        faults_injected=len(faults),
        degraded=system.degraded,
        mean_response_seconds=(
            stats.mean_seconds if has_samples else None
        ),
        p50_response_seconds=(
            stats.percentile(50) if has_samples else None
        ),
        p90_response_seconds=(
            stats.percentile(90) if has_samples else None
        ),
        p99_response_seconds=(
            stats.percentile(99) if has_samples else None
        ),
    )


def run(
    config: ExperimentConfig | None = None,
    fault_rates=None,
    read_fault_probability: float = 0.0,
    reset_probability: float = 0.0,
    rate_per_hour: float = 120.0,
    horizon_hours: float | None = None,
    max_attempts: int = 5,
    max_requeues: int = 2,
    max_batch: int = 32,
    algorithm: str = "LOSS",
) -> ChaosResult:
    """Sweep the fault-rate grid."""
    config = config or ExperimentConfig()
    if fault_rates is None:
        fault_rates = DEFAULT_FAULT_RATES
    points = tuple(
        run_point(
            config,
            fault_rate=rate,
            read_fault_probability=read_fault_probability,
            reset_probability=reset_probability,
            rate_per_hour=rate_per_hour,
            horizon_hours=horizon_hours,
            max_attempts=max_attempts,
            max_requeues=max_requeues,
            max_batch=max_batch,
            algorithm=algorithm,
        )
        for rate in fault_rates
    )
    return ChaosResult(label="chaos", points=points)


def report(result: ChaosResult) -> None:
    """Print the sweep table and the zero-loss verdict."""
    print_table(
        result.headers(),
        result.rows(),
        precision=3,
        title=(
            "Chaos sweep: eventual completion and response times "
            "under injected drive faults"
        ),
    )
    if result.all_complete:
        print(
            "all requests eventually completed at every fault rate "
            "(completion ratio 1.0)"
        )
    else:
        print("WARNING: requests were lost at some fault rate")


def main(
    config: ExperimentConfig | None = None,
    fault_rates=None,
    read_fault_probability: float = 0.0,
    reset_probability: float = 0.0,
    rate_per_hour: float = 120.0,
    horizon_hours: float | None = None,
    max_attempts: int = 5,
    max_requeues: int = 2,
    max_batch: int = 32,
    algorithm: str = "LOSS",
) -> ChaosResult:
    """Run and report."""
    result = run(
        config,
        fault_rates=fault_rates,
        read_fault_probability=read_fault_probability,
        reset_probability=reset_probability,
        rate_per_hour=rate_per_hour,
        horizon_hours=horizon_hours,
        max_attempts=max_attempts,
        max_requeues=max_requeues,
        max_batch=max_batch,
        algorithm=algorithm,
    )
    report(result)
    return result


# -- the library durability sweep --------------------------------------------


@dataclass(frozen=True)
class LibraryChaosPoint:
    """One redundancy level's outcome."""

    replicas: int
    drives: int
    arms: int
    cartridges: int
    reads: int
    completed: int
    failed_reads: int
    lost: int
    degraded_reads: int
    repairs_started: int
    repairs_completed: int
    repairs_failed: int
    sub_failures: int
    requeues: int
    faults_injected: int
    mean_response_seconds: float | None
    p50_response_seconds: float | None
    p99_response_seconds: float | None
    max_arm_occupancy: float
    makespan_seconds: float

    @property
    def durability(self) -> float:
        """Fraction of logical reads that returned data."""
        if self.reads == 0:
            return 1.0
        return self.completed / self.reads


@dataclass(frozen=True)
class LibraryChaosResult:
    """The durability sweep, in the tabular-result protocol."""

    label: str
    points: tuple[LibraryChaosPoint, ...]

    def headers(self) -> list[str]:
        """Columns of :meth:`rows`."""
        return [
            "replicas", "drives", "arms", "reads", "completed",
            "failed", "lost", "durability", "degraded", "repairs",
            "repaired", "repair fail", "sub fail", "requeues",
            "faults", "mean (s)", "p50 (s)", "p99 (s)", "arm occ",
        ]

    def rows(self) -> list[list]:
        """One row per redundancy level."""
        return [
            [
                point.replicas,
                point.drives,
                point.arms,
                point.reads,
                point.completed,
                point.failed_reads,
                point.lost,
                point.durability,
                point.degraded_reads,
                point.repairs_started,
                point.repairs_completed,
                point.repairs_failed,
                point.sub_failures,
                point.requeues,
                point.faults_injected,
                point.mean_response_seconds,
                point.p50_response_seconds,
                point.p99_response_seconds,
                point.max_arm_occupancy,
            ]
            for point in self.points
        ]

    def to_dict(self) -> list[dict]:
        """Records for export."""
        return [dict(zip(self.headers(), row)) for row in self.rows()]

    @property
    def zero_lost(self) -> bool:
        """Was every logical read accounted for at every level?"""
        return all(point.lost == 0 for point in self.points)

    @property
    def redundancy_protects(self) -> bool:
        """Did every replicated level (>= 2 copies) lose nothing?"""
        return all(
            point.failed_reads == 0
            for point in self.points
            if point.replicas >= 2
        )

    @property
    def ok(self) -> bool:
        """The CI gate: both durability invariants hold."""
        return self.zero_lost and self.redundancy_protects


def run_library_point(
    config: ExperimentConfig,
    replicas: int,
    drives: int = 4,
    arms: int = 2,
    cartridges: int = 6,
    stripe_unit: int = 4,
    rate_per_hour: float = 120.0,
    horizon_hours: float | None = None,
    locate_fault_probability: float = 0.05,
    read_fault_probability: float = 0.05,
    max_attempts: int = 2,
    max_requeues: int = 0,
    max_batch: int = 16,
    algorithm: str = "LOSS",
) -> LibraryChaosPoint:
    """Service one logical-read stream at one redundancy level.

    The retry budgets default *tight* (two attempts, no requeues) so a
    faulted cartridge genuinely fails sub-requests and the replica
    fallback is exercised — the sweep measures what redundancy buys,
    not what retries hide.
    """
    if horizon_hours is None:
        horizon_hours = _HORIZON_HOURS[config.scale]
    shelf = [
        Cartridge(
            f"tape-{index}",
            generate_tape(seed=config.tape_seed + index),
        )
        for index in range(cartridges)
    ]
    bus = EventBus()
    faults = bus.collect("fault.injected")
    system = MultiDriveSystem(
        shelf,
        drives=drives,
        arms=arms,
        scheduler=get_scheduler(algorithm),
        policy=BatchPolicy(max_batch=max_batch),
        bus=bus,
        resilience=ResilienceConfig(
            retry=RetryPolicy(
                max_attempts=max_attempts, seed=config.workload_seed
            ),
            max_requeues=max_requeues,
        ),
        fault_plan=FaultPlan(
            locate_fault_probability=locate_fault_probability,
            read_fault_probability=read_fault_probability,
            seed=config.workload_seed,
        ),
        aging=MediaAgingModel(seed=config.tape_seed),
    )
    volume = striped_volume(
        shelf, stripe_unit=stripe_unit, replicas=replicas
    )
    coordinator = StripedReadCoordinator(system, volume)
    [label] = coordinator.labels()
    rng = np.random.default_rng(config.workload_seed)
    rate_per_second = rate_per_hour / 3600.0
    horizon_seconds = horizon_hours * 3600.0
    reads = []
    clock = 0.0
    while True:
        clock += float(rng.exponential(1.0 / rate_per_second))
        if clock >= horizon_seconds:
            break
        length = int(rng.integers(1, stripe_unit + 1))
        segment = int(
            rng.integers(0, volume.logical_total - length + 1)
        )
        reads.append(LibraryRequest(clock, label, segment, length))
    stats = coordinator.run(reads)
    has_samples = stats.count > 0
    makespan = system.clock_seconds
    occupancies = system.robot.occupancies(makespan)
    return LibraryChaosPoint(
        replicas=replicas,
        drives=drives,
        arms=arms,
        cartridges=cartridges,
        reads=coordinator.submitted,
        completed=coordinator.completed,
        failed_reads=len(coordinator.failed),
        lost=coordinator.lost,
        degraded_reads=coordinator.degraded_reads,
        repairs_started=coordinator.repairs_started,
        repairs_completed=coordinator.repairs_completed,
        repairs_failed=coordinator.repairs_failed,
        sub_failures=len(system.failed),
        requeues=system.requeues,
        faults_injected=len(faults),
        mean_response_seconds=(
            stats.mean_seconds if has_samples else None
        ),
        p50_response_seconds=(
            stats.percentile(50) if has_samples else None
        ),
        p99_response_seconds=(
            stats.percentile(99) if has_samples else None
        ),
        max_arm_occupancy=(
            max(occupancies) if occupancies else 0.0
        ),
        makespan_seconds=makespan,
    )


def run_library(
    config: ExperimentConfig | None = None,
    replicas=None,
    drives: int = 4,
    arms: int = 2,
    cartridges: int = 6,
    stripe_unit: int = 4,
    rate_per_hour: float = 120.0,
    horizon_hours: float | None = None,
    smoke: bool = False,
) -> LibraryChaosResult:
    """Sweep durability and tail latency against the replica count.

    ``smoke=True`` shrinks the run to the CI gate: a short horizon at
    redundancy levels 1 and 2 — fast, and still exercising degraded
    reads, repair traffic, and both durability invariants.
    """
    config = config or ExperimentConfig()
    if smoke:
        if replicas is None:
            replicas = (1, 2)
        if horizon_hours is None:
            horizon_hours = 1.0
    if replicas is None:
        replicas = DEFAULT_REPLICAS
    points = tuple(
        run_library_point(
            config,
            replicas=count,
            drives=drives,
            arms=arms,
            cartridges=cartridges,
            stripe_unit=stripe_unit,
            rate_per_hour=rate_per_hour,
            horizon_hours=horizon_hours,
        )
        for count in replicas
    )
    return LibraryChaosResult(label="chaos-library", points=points)


def report_library(result: LibraryChaosResult) -> None:
    """Print the durability table and both gate verdicts."""
    print_table(
        result.headers(),
        result.rows(),
        precision=3,
        title=(
            "Library chaos sweep: durability and tail latency vs "
            "redundancy under aging, faults, and repair traffic"
        ),
    )
    if result.zero_lost:
        print(
            "every logical read was accounted for at every "
            "redundancy level (zero silent loss)"
        )
    else:
        print("WARNING: logical reads were silently lost")
    if result.redundancy_protects:
        print("no durability losses at any replicated level (>= 2 copies)")
    else:
        print("WARNING: data was lost despite redundancy")


def main_library(
    config: ExperimentConfig | None = None,
    replicas=None,
    drives: int = 4,
    arms: int = 2,
    cartridges: int = 6,
    stripe_unit: int = 4,
    rate_per_hour: float = 120.0,
    horizon_hours: float | None = None,
    smoke: bool = False,
) -> LibraryChaosResult:
    """Run and report the library durability sweep."""
    result = run_library(
        config,
        replicas=replicas,
        drives=drives,
        arms=arms,
        cartridges=cartridges,
        stripe_unit=stripe_unit,
        rate_per_hour=rate_per_hour,
        horizon_hours=horizon_hours,
        smoke=smoke,
    )
    report_library(result)
    return result
