"""The benchmark's three workloads, their inputs and their output checks.

Each workload has two phases:

* ``setup()`` builds the inputs from the seed: the cartridge shelf
  (``generate_tape`` plus ``LocateTimeModel`` construction) and, for the
  online workloads, the tenant request stream.  The program receives
  only these generated inputs.
* ``run(inputs, parts)`` builds a fresh system over the inputs, runs it
  to completion, checks the outputs and returns an :class:`Outcome`.
  One call is one repetition of the timed run.  It times the simulation
  itself, not the checks, as named parts of ``parts``
  (:class:`timing.Parts`).

Functions that the tracer wraps (``generate_tape``,
``zipf_serve_stream``) are looked up through their module at call time,
so a wrapped attribute is seen here too.

Every simulated output is folded into :attr:`Outcome.digest`: per-request
completions and failures, gateway sheds, batch records and sweep
statistics.  Floats enter the digest as ``float.hex`` strings, so two
digests agree only if the outputs agree bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

import repro.geometry.generator as generator
import repro.serve.workload as serve_workload
from repro.cache.library_tier import CachedLibrarySystem
from repro.experiments import parallel
from repro.experiments.config import OPT_MAX_LENGTH, ExperimentConfig
from repro.experiments.runner import DEFAULT_ALGORITHMS, run_per_locate
from repro.experiments.serve_sim import (
    DEFAULT_BACKEND_DEPTH,
    DEFAULT_CUT_SLACK_SECONDS,
    DEFAULT_DEADLINE_SECONDS,
    DEFAULT_SLO_SECONDS,
    DEFAULT_TENANTS,
)
from repro.library import events as sim
from repro.library.cartridge import Cartridge
from repro.library.system import MultiDriveSystem
from repro.obs.bus import EventBus
from repro.obs.events import FaultInjected, RequestRetried
from repro.obs.trace import TraceRecorder
from repro.online.batch_queue import BatchPolicy, DeadlineBatchPolicy
from repro.resilience.injection import FaultPlan
from repro.resilience.policy import ResilienceConfig
from repro.scheduling.base import get_scheduler
from repro.serve.config import ServeConfig, TenantConfig
from repro.serve.gateway import Gateway

#: Simulated hours of the online workloads: about 12,000 requests, so
#: more than ten response-time samples lie beyond p999.
ONLINE_HORIZON_HOURS = 20.0

#: Figure 4 grid truncation: the paper's lengths up to 64 at ``quick``
#: scale (1,950 trials, all eight algorithms).
SWEEP_MAX_LENGTH = 64

#: Tape seeds of one benchmark seed: ``TAPE_SEED_STRIDE * seed + 1 + i``
#: for cartridge ``i``.  Seed 0 gives the shelf of ``repro serve-sim``
#: and the tape of ``repro figure4`` at their default seeds.
TAPE_SEED_STRIDE = 1000


class CheckFailed(Exception):
    """A simulated output broke an invariant of its workload."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _canon(value):
    """A value as a digest token: floats exact, containers recursed."""
    if isinstance(value, (bool, str, type(None))):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (tuple, list)):
        return tuple(_canon(item) for item in value)
    raise TypeError(f"no digest form for {type(value).__name__}")


def digest_of(lines) -> str:
    """SHA-256 over the canonical form of a sequence of records."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(repr(_canon(line)).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


@dataclass
class Outcome:
    """One checked repetition of a workload.

    ``units`` is the work the throughput counts: requests that reached
    a typed outcome, or sweep trials.  ``attempted``/``failed`` count
    requests (online) or schedules (sweep).  ``sim`` holds simulated
    metrics, which repeat exactly for a seed; ``layer`` holds the
    simulated per-layer quantities.
    """

    digest: str
    units: int
    attempted: int
    failed: int
    sim: dict[str, float]
    layer: dict[str, float] = field(default_factory=dict)


def shelf(seed: int, cartridges: int) -> list[Cartridge]:
    """The seed's cartridge shelf, labelled ``tape-0``, ``tape-1``, ..."""
    return [
        Cartridge(
            f"tape-{index}",
            generator.generate_tape(
                seed=TAPE_SEED_STRIDE * seed + 1 + index
            ),
        )
        for index in range(cartridges)
    ]


def tenant_stream(seed: int, cartridges: list[Cartridge]):
    """The four-tenant million-user Zipf stream over a shelf."""
    return serve_workload.zipf_serve_stream(
        DEFAULT_TENANTS,
        sorted(cartridge.label for cartridge in cartridges),
        total_segments=cartridges[0].geometry.total_segments,
        horizon_seconds=ONLINE_HORIZON_HOURS * 3600.0,
        seed=seed,
    )


class _Ledger:
    """Records every outcome of an online run from the listener hooks.

    Attached after the layers under test, so it observes the run without
    steering it.
    """

    def __init__(self, top, kernel) -> None:
        self.lines: list[tuple] = []
        self.responses: list[float] = []
        self.failed = 0
        self.mount_waits: list[float] = []
        self._seen: set[int] = set()
        self._kernel = kernel
        top.completion_listeners.append(self._completed)
        top.failure_listeners.append(self._failed)
        kernel.on(sim.MountCompleted, self._mounted)

    def _outcome(self, item) -> None:
        _check(
            id(item) not in self._seen,
            f"request {item} got a second outcome",
        )
        self._seen.add(id(item))

    def _completed(self, item, completion_seconds: float, drive: int):
        self._outcome(item)
        _check(
            completion_seconds >= item.arrival_seconds,
            f"request {item} completed before it arrived",
        )
        self.responses.append(completion_seconds - item.arrival_seconds)
        self.lines.append(
            (
                "C", item.tenant, item.label, item.segment,
                item.arrival_seconds, completion_seconds, drive,
            )
        )

    def _failed(self, item) -> None:
        self._outcome(item)
        self.failed += 1
        self.lines.append(
            ("F", item.tenant, item.label, item.segment,
             item.arrival_seconds, self._kernel.now_seconds)
        )

    def _mounted(self, event: sim.MountCompleted) -> None:
        self.mount_waits.append(
            self._kernel.now_seconds - event.requested_seconds
        )


def _online_outcome(
    stream, system: MultiDriveSystem, ledger: _Ledger, shed_lines,
    lost: int, extra_lines=(),
) -> Outcome:
    """Check conservation and summarise one online run."""
    submitted = len(stream)
    completed = len(ledger.responses)
    shed = len(shed_lines)
    _check(lost == 0, f"{lost} requests lost")
    _check(
        completed + ledger.failed + shed == submitted,
        f"submitted {submitted} != completed {completed} + failed "
        f"{ledger.failed} + shed {shed}",
    )
    _check(completed > 0, "no request completed")
    batches = system.batches
    _check(len(batches) > 0, "no batch ran")
    responses = np.asarray(ledger.responses)
    p999 = float(np.percentile(responses, 99.9))
    gaps = [
        abs(b.estimated_seconds - b.execution_seconds)
        / b.execution_seconds
        for b in batches
        if b.execution_seconds > 0
    ]
    executed = sum(b.size for b in batches)
    makespan = system.clock_seconds
    lines = [
        *ledger.lines,
        *shed_lines,
        *(("B", *astuple(b)) for b in batches),
        *extra_lines,
    ]
    return Outcome(
        digest=digest_of(lines),
        units=completed + ledger.failed + shed,
        attempted=submitted,
        failed=ledger.failed + lost + shed,
        sim={
            "sim_p50_response_s": float(np.percentile(responses, 50)),
            "sim_p999_response_s": p999,
            "sim_response_samples": completed,
            "sim_samples_beyond_p999": int((responses > p999).sum()),
            "sim_estimate_gap_pct": 100.0 * float(np.mean(gaps)),
            "sim_s_per_locate": (
                sum(b.locate_seconds for b in batches) / executed
            ),
        },
        layer={
            "requests": submitted,
            "library.events": system.kernel.events_dispatched,
            "library.batches": len(batches),
            "library.exchanges": system.exchanges,
            "library.drive_utilization": (
                sum(bay.busy_seconds for bay in system.bays)
                / (len(system.bays) * makespan)
            ),
            "library.arm_occupancy": (
                system.robot.busy_seconds
                / (len(system.robot) * makespan)
            ),
            "library.mount_wait_s": (
                float(np.mean(ledger.mount_waits))
                if ledger.mount_waits else 0.0
            ),
        },
    )


class _Online:
    """An online workload: a seeded shelf plus the tenant stream."""

    cartridges: int

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        cartridges = shelf(self.seed, self.cartridges)
        return cartridges, tenant_stream(self.seed, cartridges)


class ServeGateway(_Online):
    """``serve-sim``'s baseline: the tenant mix through ``Gateway``.

    ``MultiDriveSystem(drives=4, arms=1)`` runs LOSS with
    ``DeadlineBatchPolicy(max_batch=32)``, backend depth 96, 8
    cartridges, no bus, no cache, no faults.  Open loop in simulated
    time: arrivals are fixed by the stream, whatever the service does.
    """

    name = "serve-gateway"
    cartridges = 8

    def run(self, inputs, parts) -> Outcome:
        cartridges, stream = inputs
        with parts.part("run"):
            system = MultiDriveSystem(
                cartridges,
                drives=4,
                arms=1,
                scheduler=get_scheduler("LOSS"),
                policy=DeadlineBatchPolicy(
                    max_batch=32,
                    deadline_seconds=DEFAULT_DEADLINE_SECONDS,
                    cut_slack_seconds=DEFAULT_CUT_SLACK_SECONDS,
                ),
            )
            gateway = Gateway(
                ServeConfig(
                    tenants=tuple(
                        TenantConfig(
                            name=spec.name,
                            weight=spec.weight,
                            slo_seconds=DEFAULT_SLO_SECONDS[spec.name],
                        )
                        for spec in DEFAULT_TENANTS
                    ),
                    max_backend_depth=DEFAULT_BACKEND_DEPTH,
                ),
                system=system,
            )
            ledger = _Ledger(system, system.kernel)
            report = gateway.run(stream)
        _check(
            report.submitted == len(stream),
            f"gateway saw {report.submitted} of {len(stream)} requests",
        )
        _check(
            report.completed == len(ledger.responses),
            "gateway and backend disagree on completions",
        )
        shed_lines = [
            ("S", record.request.tenant, record.request.label,
             record.request.segment, record.request.arrival_seconds,
             record.seconds, record.rejection.kind)
            for record in gateway.shed
        ]
        outcome = _online_outcome(
            stream, system, ledger, shed_lines, report.lost
        )
        outcome.layer["serve.released"] = sum(
            tenant.released for tenant in report.tenants
        )
        outcome.layer["serve.shed"] = report.shed
        return outcome


class CachedLibrary(_Online):
    """The tenant stream, without the gateway, through a cache tier.

    ``CachedLibrarySystem`` (LRU ``SegmentCache`` with prefetch) over
    ``MultiDriveSystem(drives=4, arms=2, BatchPolicy(max_batch=8))``
    with 32 cartridges, a ``FaultPlan`` with small locate and read fault
    rates, and an ``EventBus`` with a ``TraceRecorder`` attached.
    """

    name = "cached-library"
    cartridges = 32
    locate_fault_probability = 0.002
    read_fault_probability = 0.001

    def run(self, inputs, parts) -> Outcome:
        cartridges, stream = inputs
        # The wall-clock scheduling budget stays infinite: a finite one
        # would let host speed (and tracer overhead) flip degraded mode.
        resilience = ResilienceConfig()
        with parts.part("run"):
            bus = EventBus()
            recorder = TraceRecorder(bus)
            system = MultiDriveSystem(
                cartridges,
                drives=4,
                arms=2,
                scheduler=get_scheduler("LOSS"),
                policy=BatchPolicy(max_batch=8),
                bus=bus,
                resilience=resilience,
                fault_plan=FaultPlan(
                    locate_fault_probability=self.locate_fault_probability,
                    read_fault_probability=self.read_fault_probability,
                    seed=self.seed,
                ),
            )
            tier = CachedLibrarySystem(system=system)
            ledger = _Ledger(tier, system.kernel)
            tier.run(stream)
        _check(
            math.isinf(resilience.schedule_wall_budget_seconds),
            "wall-clock scheduling budget must stay infinite",
        )
        _check(not tier.degraded, "library entered degraded mode")
        _check(
            tier.submitted == len(stream),
            f"tier saw {tier.submitted} of {len(stream)} requests",
        )
        stats = tier.cache_stats
        _check(
            stats.hits == tier.hits
            and stats.hits + stats.misses == tier.submitted,
            "cache lookups do not add up to the requests",
        )
        kinds = [type(event) for event in recorder.events]
        outcome = _online_outcome(
            stream, system, ledger, (), tier.lost,
            extra_lines=[
                ("H", tier.hits, stats.misses, len(recorder.events))
            ],
        )
        outcome.layer.update(
            {
                "cache.lookups": tier.submitted,
                "cache.hit_ratio": tier.hits / tier.submitted,
                "resilience.faults_injected": kinds.count(FaultInjected),
                "resilience.retries": kinds.count(RequestRetried),
            }
        )
        return outcome


class FigureSweep:
    """Figure 4 (random origin) at ``quick`` scale, serial, 8 algorithms.

    The grid stops at :data:`SWEEP_MAX_LENGTH`.  One repetition runs
    ``run_per_locate(..., workers=1)`` once per grid length, timing each
    length on its own; per-trial seeding makes each length's statistics
    the same as in one call over the whole grid.  Trials are generated
    inside the sweep, from the seed.
    """

    name = "figure-sweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = ExperimentConfig(
            tape_seed=TAPE_SEED_STRIDE * seed + 1,
            workload_seed=seed,
            scale="quick",
            max_length=SWEEP_MAX_LENGTH,
        )

    def setup(self):
        # The sweep memoizes its tape, model and schedulers per process;
        # building that substrate is this workload's set-up.
        parallel._SUBSTRATE_CACHE.clear()
        parallel._substrate(
            parallel.SweepSpec(
                tape_seed=self.config.tape_seed,
                workload_seed=self.config.workload_seed,
                origin_at_start=False,
                algorithms=DEFAULT_ALGORITHMS,
            )
        )
        return self.config

    def run(self, config, parts) -> Outcome:
        records = []
        loss = []
        schedules = 0
        for length in config.effective_lengths:
            with parts.part(str(length)):
                result = run_per_locate(
                    replace(config, lengths=(length,), max_length=None),
                    origin_at_start=False,
                    workers=1,
                )
            schedules += _check_sweep_length(config, result, length)
            records.extend(result.to_dict())
            loss.append(result.point("LOSS", length).per_locate_mean)
        records.sort(key=lambda r: (r["algorithm"], r["length"]))
        return Outcome(
            digest=digest_of(tuple(r.values()) for r in records),
            units=sum(
                config.trials(length)
                for length in config.effective_lengths
            ),
            attempted=schedules,
            failed=0,
            sim={"sim_s_per_locate": float(np.mean(loss))},
            layer={"requests": 0},
        )


def _check_sweep_length(config, result, length: int) -> int:
    """Check one grid length's cells; returns its schedule count."""
    trials = config.trials(length)
    cells = {
        name: result.point(name, length) for name in DEFAULT_ALGORITHMS
    }
    schedules = 0
    for name, cell in cells.items():
        expected = trials
        if name == "OPT":
            expected = (
                min(trials, config.opt_trials(length))
                if length <= OPT_MAX_LENGTH else 0
            )
        _check(
            cell.total.count == expected,
            f"{name} at length {length}: {cell.total.count} trials, "
            f"expected {expected}",
        )
        if expected:
            _check(
                math.isfinite(cell.total.mean) and cell.total.mean > 0,
                f"{name} at length {length}: bad mean {cell.total.mean}",
            )
        schedules += cell.total.count
    opt = cells["OPT"]
    if opt.total.count == trials:
        # On identical trials no heuristic beats the optimum.
        best = min(
            cell.total.mean for name, cell in cells.items() if name != "OPT"
        )
        _check(
            opt.total.mean <= best * (1 + 1e-9),
            f"OPT worse than a heuristic at length {length}",
        )
    return schedules


WORKLOADS = {
    workload.name: workload
    for workload in (ServeGateway, FigureSweep, CachedLibrary)
}
