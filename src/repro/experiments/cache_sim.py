"""Cache-sim — the disk staging tier under a skewed online workload.

An extension beyond the paper's figures: the paper's *online tertiary
storage* setting implies a hierarchical store in which random reads
only hit tape after missing a disk staging tier.  This experiment runs
the Zipf arrival stream through the online batching system twice —
cache-off (the seed repo's behaviour) and cache-on at a sweep of
staging capacities — and reports hit rate and mean/p99 response time.
The headline: once the cache holds a few percent of the hot set, mean
response time drops strictly below the cache-off baseline, because
every hit skips a 10–100 s locate *and* thins the batch queue the
misses wait in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.admission import get_admission
from repro.cache.library_tier import CachedLibrarySystem
from repro.cache.policies import get_policy
from repro.cache.store import SegmentCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.report import print_table
from repro.experiments.result import TabularResult
from repro.geometry.generator import generate_tape
from repro.library.cartridge import Cartridge
from repro.library.requests import label_requests
from repro.library.system import MultiDriveSystem
from repro.online.batch_queue import BatchPolicy
from repro.online.metrics import ResponseStats
from repro.workload.arrivals import TimedRequest, ZipfArrivals
from repro.workload.zipf import ZipfWorkload

#: Capacity sweep, as fractions of the workload's hot set.
DEFAULT_CAPACITY_FRACTIONS = (0.01, 0.05, 0.20, 0.50)

#: Simulated horizon (hours) per trial scale.
_HORIZON_HOURS = {"quick": 4.0, "full": 12.0, "paper": 48.0}


@dataclass(frozen=True)
class CacheSimPoint:
    """One cache-on run at a fixed staging capacity."""

    capacity_segments: int
    hit_rate: float
    mean_seconds: float
    p99_seconds: float
    evictions: int
    prefetch_insertions: int


@dataclass(frozen=True)
class CacheSimResult(TabularResult):
    """The sweep plus its cache-off baseline."""

    label: str
    alpha: float
    hot_set: int
    placement: str
    rate_per_hour: float
    horizon_seconds: float
    request_count: int
    policy: str
    admission: str
    prefetch: bool
    baseline_mean_seconds: float
    baseline_p99_seconds: float
    points: tuple[CacheSimPoint, ...]

    def headers(self) -> list[str]:
        """Column names matching :meth:`rows` (used by exporters)."""
        return [
            "capacity_segments",
            "percent_of_hot_set",
            "hit_percent",
            "mean_minutes",
            "p99_minutes",
            "mean_vs_off_percent",
        ]

    def rows(self) -> list[list]:
        """Report rows: the baseline first, then the capacity sweep."""
        out: list[list] = [
            [
                0,
                0.0,
                None,
                self.baseline_mean_seconds / 60.0,
                self.baseline_p99_seconds / 60.0,
                None,
            ]
        ]
        for point in self.points:
            out.append(
                [
                    point.capacity_segments,
                    100.0 * point.capacity_segments / self.hot_set,
                    100.0 * point.hit_rate,
                    point.mean_seconds / 60.0,
                    point.p99_seconds / 60.0,
                    100.0
                    * (1.0 - point.mean_seconds
                       / self.baseline_mean_seconds),
                ]
            )
        return out


def _simulate(
    tape,
    requests: list[TimedRequest],
    cache: SegmentCache | None,
    max_batch: int,
    prefetch: bool,
) -> ResponseStats:
    """One run on a single preloaded drive, behind ``cache`` if given."""
    system = MultiDriveSystem(
        [Cartridge("tape", tape)],
        drives=1,
        preload=["tape"],
        policy=BatchPolicy(max_batch=max_batch),
    )
    labelled = label_requests("tape", requests)
    if cache is None:
        return system.run(labelled)
    tier = CachedLibrarySystem(system=system, cache=cache, prefetch=prefetch)
    return tier.run(labelled)


def _run_capacity_point(
    tape,
    requests: list[TimedRequest],
    capacity: int,
    max_batch: int,
    prefetch: bool,
    policy: str,
    admission: str,
) -> CacheSimPoint:
    """One cache-on run — an independent, picklable work unit.

    The capacity sweep replays the same request stream per capacity,
    so each point is deterministic in isolation and the sweep
    parallelizes trivially (identical results for any worker count).
    """
    cache = SegmentCache(
        capacity,
        policy=get_policy(policy),
        admission=get_admission(admission),
    )
    stats = _simulate(tape, requests, cache, max_batch, prefetch)
    return CacheSimPoint(
        capacity_segments=capacity,
        hit_rate=cache.stats.hit_rate,
        mean_seconds=stats.mean_seconds,
        p99_seconds=stats.percentile(99),
        evictions=cache.stats.evictions,
        prefetch_insertions=cache.stats.prefetch_insertions,
    )


def run(
    config: ExperimentConfig | None = None,
    capacities: tuple[int, ...] | None = None,
    alpha: float = 0.8,
    hot_set: int = 4_000,
    placement: str = "clustered",
    rate_per_hour: float = 120.0,
    horizon_hours: float | None = None,
    max_batch: int = 96,
    policy: str = "gdsf",
    admission: str = "always",
    prefetch: bool = True,
    workers: int | None = 1,
) -> CacheSimResult:
    """Sweep staging capacity against the cache-off baseline.

    The workload is Zipf(``alpha``) over a ``hot_set``-segment hot set
    (``clustered`` placement by default — a hot relation laid out
    sequentially, which is also what makes read-through prefetch
    meaningful), arriving Poisson at ``rate_per_hour``.  The same
    request stream is replayed for every configuration, so each
    capacity point is an independent simulation and ``workers > 1``
    fans the sweep over a process pool with identical results.
    """
    config = config or ExperimentConfig()
    if horizon_hours is None:
        horizon_hours = _HORIZON_HOURS[config.scale]
    if capacities is None:
        capacities = tuple(
            max(1, int(round(fraction * hot_set)))
            for fraction in DEFAULT_CAPACITY_FRACTIONS
        )
    tape = generate_tape(seed=config.tape_seed)
    workload = ZipfWorkload(
        total_segments=tape.total_segments,
        alpha=alpha,
        universe=hot_set,
        seed=config.workload_seed,
        placement=placement,
    )
    requests = ZipfArrivals(
        rate_per_hour=rate_per_hour,
        workload=workload,
        seed=config.workload_seed + 1,
    ).batch(horizon_hours * 3600.0)

    from repro.experiments.parallel import _pool_context, resolve_workers

    workers = resolve_workers(workers)
    baseline = _simulate(tape, requests, None, max_batch, prefetch)
    if workers == 1 or len(capacities) <= 1:
        points = [
            _run_capacity_point(
                tape, requests, capacity, max_batch, prefetch,
                policy, admission,
            )
            for capacity in capacities
        ]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(workers, len(capacities)),
            mp_context=_pool_context(),
        ) as pool:
            points = list(
                pool.map(
                    _run_capacity_point,
                    [tape] * len(capacities),
                    [requests] * len(capacities),
                    capacities,
                    [max_batch] * len(capacities),
                    [prefetch] * len(capacities),
                    [policy] * len(capacities),
                    [admission] * len(capacities),
                )
            )
    return CacheSimResult(
        label="cache-sim",
        alpha=alpha,
        hot_set=hot_set,
        placement=placement,
        rate_per_hour=rate_per_hour,
        horizon_seconds=horizon_hours * 3600.0,
        request_count=len(requests),
        policy=policy,
        admission=admission,
        prefetch=prefetch,
        baseline_mean_seconds=baseline.mean_seconds,
        baseline_p99_seconds=baseline.percentile(99),
        points=tuple(points),
    )


def report(result: CacheSimResult) -> None:
    """Print the capacity sweep (row 0 = cache-off baseline)."""
    print_table(
        [
            "capacity",
            "% hot set",
            "hit %",
            "mean (min)",
            "p99 (min)",
            "mean vs off %",
        ],
        result.rows(),
        title=(
            f"Cache-sim: Zipf(a={result.alpha}) x {result.request_count}"
            f" requests, {result.policy}/{result.admission}"
            f"{'+prefetch' if result.prefetch else ''}"
            f" (hot set {result.hot_set}, {result.placement})"
        ),
    )


def main(
    config: ExperimentConfig | None = None, **kwargs
) -> CacheSimResult:
    """Run and report."""
    result = run(config, **kwargs)
    report(result)
    return result
