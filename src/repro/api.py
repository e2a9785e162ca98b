"""The single public facade of the reproduction.

``repro.api`` re-exports the blessed entry points of every layer under
one import, so downstream code can write::

    from repro import api

    tape = api.generate_tape(seed=7)
    bus = api.EventBus()
    system = api.MultiDriveSystem(
        [api.Cartridge("tape", tape)], drives=1, preload=["tape"],
        bus=bus,
    )

and stay insulated from internal module moves: names re-exported here
are stable across releases (see ``docs/API.md`` for the signatures and
the deprecation policy), while importing from deep module paths may
break when internals are reorganized.  This module is the one place
that decides what is public: the top-level :mod:`repro` package
re-exports exactly this ``__all__``, plus ``api`` itself.

The facade groups:

* **geometry / model** — synthetic cartridges, key-point calibration,
  the locate-time model and its perturbations;
* **drive** — the simulated drive and the ground-truth stand-in for the
  physical DLT4000;
* **scheduling** — the paper's eight algorithms, the LTSP frontier
  solvers (exact, repair, sweep, greedy), schedules, execution;
* **online** — the batching service loop (the robotic library's
  :class:`~repro.library.MultiDriveSystem`, one preloaded drive for the
  paper's single-tape setting) and the staging-cache front-end with
  its eviction and admission policies;
* **serving** — the SLA-aware gateway of :mod:`repro.serve` (tenants,
  fairness, backpressure, typed shedding) and its deterministic
  multi-tenant load generator — the entry point external callers are
  meant to program against (see ``docs/SERVING.md``);
* **observability** — the event bus, metrics, and trace tooling of
  :mod:`repro.obs`;
* **experiments** — config plus the tabular-result export helpers;
* **static analysis** — the :mod:`repro.lint` engine behind
  ``repro lint`` (see ``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

from repro._version import __version__
from repro.cache import (
    AdmissionPolicy,
    AlwaysAdmit,
    CachedLibrarySystem,
    CostThresholdAdmission,
    EvictionPolicy,
    FIFOPolicy,
    FrequencyThresholdAdmission,
    GDSFPolicy,
    LRUPolicy,
    SegmentCache,
)
from repro.drive import (
    SimulatedDrive,
    ground_truth_drive,
    ground_truth_model,
)
from repro.exceptions import (
    AdmissionRejected,
    BatchTooLarge,
    CacheError,
    DeadlineExpired,
    DriveError,
    DriveFault,
    DriveReset,
    EmptyBatchError,
    GeometryError,
    LintError,
    LocateFault,
    MetricsError,
    NoSamplesError,
    ReadFault,
    ReproError,
    SchedulingError,
    SegmentOutOfRange,
    ServeError,
    TenantOverloaded,
    TraceError,
    UnknownTenant,
)
from repro.lint import Finding, LintRun, ProjectGraph, flow_rules, run_lint
from repro.experiments.config import ExperimentConfig
from repro.experiments.export import result_to_rows, write_result
from repro.experiments.result import TabularResult
from repro.geometry import (
    TapeGeometry,
    calibrate_key_points,
    generate_tape,
    geometry_from_key_points,
    make_tape_pair,
    tiny_tape,
)
from repro.model import (
    EvenOddPerturbation,
    LinearizedModel,
    LocateCase,
    LocateTimeModel,
    ShortLocateDeviation,
    classify,
    rewind_time,
)
from repro.obs import (
    EventBus,
    MetricsRegistry,
    TraceRecorder,
    TraceSummary,
    bind_standard_metrics,
    cache_stats_from_events,
    read_events_jsonl,
    response_stats_from_events,
    summarize_events,
    write_events_csv,
    write_events_jsonl,
)
from repro.library import (
    BatchRecord,
    LibraryRequest,
    MediaAgingModel,
    MultiDriveSystem,
    arm_policy_names,
    assignment_policy_names,
    exchange_policy_names,
    get_arm_policy,
    get_assignment_policy,
    get_exchange_policy,
    label_requests,
    poisson_library_stream,
)
from repro.library.cartridge import Cartridge
from repro.online.batch_queue import (
    BatchPolicy,
    BatchQueue,
    DeadlineBatchPolicy,
)
from repro.online.metrics import CacheStats, ResponseStats
from repro.online.striping import (
    LogicalRead,
    StripedReadCoordinator,
    StripedVolume,
    striped_volume,
)
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
)
from repro.scheduling import (
    AutoScheduler,
    ExecutionResult,
    FifoScheduler,
    LossScheduler,
    OptScheduler,
    ReadEntireTapeScheduler,
    ScanScheduler,
    Scheduler,
    SltfScheduler,
    SortScheduler,
    WeaveScheduler,
    estimate_schedule_seconds,
    execute_schedule,
    get_scheduler,
    scheduler_names,
)
from repro.scheduling.ltsp import (
    LtspExactScheduler,
    LtspGreedyScheduler,
    LtspRepairScheduler,
    LtspSweepScheduler,
    exact_ltsp_order,
    linear_deadhead_sections,
)
from repro.scheduling.request import Request
from repro.scheduling.schedule import Schedule
from repro.serve import (
    Gateway,
    ServeConfig,
    ServeReport,
    ServeRequest,
    ShedRecord,
    TenantConfig,
    TenantLoadSpec,
    TenantStats,
    load_serve_trace,
    save_serve_trace,
    zipf_serve_stream,
)
from repro.workload.arrivals import (
    PoissonArrivals,
    TimedRequest,
    ZipfArrivals,
)

__all__ = [
    "AdmissionPolicy",
    "AdmissionRejected",
    "AlwaysAdmit",
    "AutoScheduler",
    "BatchPolicy",
    "BatchQueue",
    "BatchRecord",
    "BatchTooLarge",
    "CacheError",
    "CacheStats",
    "CachedLibrarySystem",
    "Cartridge",
    "CostThresholdAdmission",
    "DeadlineBatchPolicy",
    "DeadlineExpired",
    "DriveError",
    "DriveFault",
    "DriveReset",
    "EmptyBatchError",
    "EvenOddPerturbation",
    "EventBus",
    "EvictionPolicy",
    "ExecutionResult",
    "ExperimentConfig",
    "FIFOPolicy",
    "FaultInjector",
    "FaultPlan",
    "FifoScheduler",
    "Finding",
    "FrequencyThresholdAdmission",
    "GDSFPolicy",
    "Gateway",
    "GeometryError",
    "LRUPolicy",
    "LibraryRequest",
    "LinearizedModel",
    "LintError",
    "LintRun",
    "LocateCase",
    "LocateFault",
    "LocateTimeModel",
    "LogicalRead",
    "LossScheduler",
    "LtspExactScheduler",
    "LtspGreedyScheduler",
    "LtspRepairScheduler",
    "LtspSweepScheduler",
    "MediaAgingModel",
    "MetricsError",
    "MetricsRegistry",
    "MultiDriveSystem",
    "NoSamplesError",
    "OptScheduler",
    "PoissonArrivals",
    "ProjectGraph",
    "ReadEntireTapeScheduler",
    "ReadFault",
    "ReproError",
    "Request",
    "ResilienceConfig",
    "ResponseStats",
    "RetryPolicy",
    "ScanScheduler",
    "Schedule",
    "Scheduler",
    "SchedulingError",
    "SegmentCache",
    "SegmentOutOfRange",
    "ServeConfig",
    "ServeError",
    "ServeReport",
    "ServeRequest",
    "ShedRecord",
    "ShortLocateDeviation",
    "SimulatedDrive",
    "SltfScheduler",
    "SortScheduler",
    "StripedReadCoordinator",
    "StripedVolume",
    "TabularResult",
    "TapeGeometry",
    "TenantConfig",
    "TenantLoadSpec",
    "TenantOverloaded",
    "TenantStats",
    "TimedRequest",
    "TraceError",
    "TraceRecorder",
    "TraceSummary",
    "UnknownTenant",
    "WeaveScheduler",
    "ZipfArrivals",
    "__version__",
    "arm_policy_names",
    "assignment_policy_names",
    "bind_standard_metrics",
    "cache_stats_from_events",
    "calibrate_key_points",
    "classify",
    "estimate_schedule_seconds",
    "exact_ltsp_order",
    "exchange_policy_names",
    "execute_schedule",
    "flow_rules",
    "generate_tape",
    "geometry_from_key_points",
    "get_arm_policy",
    "get_assignment_policy",
    "get_exchange_policy",
    "get_scheduler",
    "ground_truth_drive",
    "ground_truth_model",
    "label_requests",
    "linear_deadhead_sections",
    "load_serve_trace",
    "make_tape_pair",
    "poisson_library_stream",
    "read_events_jsonl",
    "response_stats_from_events",
    "result_to_rows",
    "rewind_time",
    "run_lint",
    "save_serve_trace",
    "scheduler_names",
    "striped_volume",
    "summarize_events",
    "tiny_tape",
    "write_events_csv",
    "write_events_jsonl",
    "write_result",
    "zipf_serve_stream",
]
