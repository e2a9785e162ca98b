"""Instrumented end-to-end run: record, verify, and export a trace.

``python -m repro trace`` services a Poisson stream on a fully
instrumented one-drive :class:`~repro.library.MultiDriveSystem` (the
tape preloaded; the whole pipeline shares one
:class:`~repro.obs.bus.EventBus`), then
summarizes the recorded stream.  Two built-in cross-checks make this a
smoke test of the telemetry layer itself (``--smoke`` fails the process
when either breaks):

1. every batch span's phase durations — locate + transfer + rewind —
   partition the measured execution to 1e-6 s;
2. the mean response time computed *from the trace* equals the
   system's own ``ResponseStats.mean_seconds``.

With ``--trace-jsonl FILE`` the raw event stream is written as JSON
Lines (lossless; see :func:`repro.obs.trace.read_events_jsonl`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import print_table
from repro.geometry.generator import generate_tape
from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsRegistry, bind_standard_metrics
from repro.obs.trace import (
    TraceRecorder,
    TraceSummary,
    response_stats_from_events,
    write_events_jsonl,
)
from repro.library.cartridge import Cartridge
from repro.library.requests import label_requests
from repro.library.system import MultiDriveSystem
from repro.online.batch_queue import BatchPolicy
from repro.scheduling.base import get_scheduler
from repro.workload.arrivals import PoissonArrivals

#: Reconciliation tolerance for the phase-sum invariant (seconds).
PHASE_TOLERANCE_SECONDS = 1e-6

#: Simulated hours per scale (mirrors the cache-sim driver).
_HORIZON_HOURS = {"quick": 2.0, "full": 12.0, "paper": 48.0}


@dataclass(frozen=True)
class TraceRunResult:
    """The recorded trace plus its verification outcome."""

    summary: TraceSummary
    registry: MetricsRegistry
    system: MultiDriveSystem
    recorder: TraceRecorder
    worst_phase_error_seconds: float
    mean_matches: bool
    jsonl_path: str | None

    @property
    def phases_reconcile(self) -> bool:
        """Did every batch's phase sum match its execution time?"""
        return self.worst_phase_error_seconds <= PHASE_TOLERANCE_SECONDS

    @property
    def ok(self) -> bool:
        """Both smoke invariants hold."""
        return self.phases_reconcile and self.mean_matches

    def headers(self) -> list[str]:
        """Columns of :meth:`rows` (tabular result protocol)."""
        return ["metric", "value"]

    def rows(self) -> list[list]:
        """The trace summary plus the verification lines."""
        return [
            *self.summary.rows(),
            ["worst phase error (s)", self.worst_phase_error_seconds],
            ["phases reconcile", self.phases_reconcile],
            ["trace mean == stats mean", self.mean_matches],
        ]

    def to_dict(self) -> list[dict]:
        """Records for export."""
        return [dict(zip(self.headers(), row)) for row in self.rows()]


def run(
    config: ExperimentConfig | None = None,
    algorithm: str = "LOSS",
    rate_per_hour: float = 120.0,
    horizon_hours: float | None = None,
    max_batch: int = 96,
    trace_jsonl: str | None = None,
) -> TraceRunResult:
    """Service an instrumented Poisson run and verify its trace."""
    config = config or ExperimentConfig()
    if horizon_hours is None:
        horizon_hours = _HORIZON_HOURS[config.scale]
    tape = generate_tape(seed=config.tape_seed)

    bus = EventBus()
    recorder = TraceRecorder(bus)
    registry = bind_standard_metrics(bus)
    system = MultiDriveSystem(
        [Cartridge("tape", tape)],
        drives=1,
        preload=["tape"],
        scheduler=get_scheduler(algorithm),
        policy=BatchPolicy(max_batch=max_batch),
        bus=bus,
    )
    requests = PoissonArrivals(
        rate_per_hour=rate_per_hour,
        total_segments=tape.total_segments,
        seed=config.workload_seed,
    ).batch(horizon_hours * 3600.0)
    stats = system.run(label_requests("tape", requests))

    spans = recorder.batch_spans()
    worst = max(
        (abs(span.phase_seconds - span.total_seconds) for span in spans),
        default=0.0,
    )
    trace_stats = response_stats_from_events(recorder.events)
    mean_matches = (
        trace_stats.count == stats.count
        # repro: noqa RPR002 -- the smoke contract IS bit-exactness:
        # the trace-derived mean must equal the stats mean to the
        # last bit, so a tolerance here would hide real drift
        and trace_stats.mean_seconds == stats.mean_seconds
    )
    if trace_jsonl is not None:
        write_events_jsonl(recorder.events, trace_jsonl)
    return TraceRunResult(
        summary=recorder.summary(),
        registry=registry,
        system=system,
        recorder=recorder,
        worst_phase_error_seconds=worst,
        mean_matches=mean_matches,
        jsonl_path=trace_jsonl,
    )


def report(result: TraceRunResult) -> None:
    """Print the trace summary and the verification lines."""
    print_table(
        ["metric", "value"],
        result.rows(),
        precision=3,
        title=(
            "Instrumented run: trace summary and telemetry "
            "cross-checks"
        ),
    )
    if result.jsonl_path is not None:
        print(f"trace written to {result.jsonl_path}")


def main(
    config: ExperimentConfig | None = None,
    algorithm: str = "LOSS",
    rate_per_hour: float = 120.0,
    horizon_hours: float | None = None,
    max_batch: int = 96,
    trace_jsonl: str | None = None,
    smoke: bool = False,
) -> TraceRunResult:
    """Run and report; with ``smoke=True``, fail on broken invariants."""
    result = run(
        config,
        algorithm=algorithm,
        rate_per_hour=rate_per_hour,
        horizon_hours=horizon_hours,
        max_batch=max_batch,
        trace_jsonl=trace_jsonl,
    )
    report(result)
    if smoke and not result.ok:
        raise SystemExit(
            "trace smoke check failed: "
            f"worst phase error {result.worst_phase_error_seconds} s, "
            f"trace mean matches stats: {result.mean_matches}"
        )
    return result
