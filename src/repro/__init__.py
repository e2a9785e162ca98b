"""repro — Random I/O scheduling for serpentine tertiary storage.

A from-scratch reproduction of Hillyer & Silberschatz, *Random I/O
Scheduling in Online Tertiary Storage Systems* (SIGMOD 1996): the
DLT4000 locate-time model, the eight batch schedulers (READ, FIFO, OPT,
SORT, SLTF, SCAN, WEAVE, LOSS), a simulated drive and robotic library,
and the full experiment harness that regenerates every figure and table
of the paper's evaluation.

Quickstart::

    from repro import (
        generate_tape, LocateTimeModel, LossScheduler,
        SimulatedDrive, execute_schedule,
    )

    tape = generate_tape(seed=7)
    model = LocateTimeModel(tape)
    batch = [123_456, 42, 599_999, 310_000]
    schedule = LossScheduler().schedule(model, origin=0, requests=batch)
    drive = SimulatedDrive(model)
    result = execute_schedule(drive, schedule)
    print(schedule.algorithm, result.total_seconds)
"""

from repro import api
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
    BatchTooLarge,
    CacheError,
    DriveError,
    EmptyBatchError,
    GeometryError,
    MetricsError,
    NoSamplesError,
    ReproError,
    SchedulingError,
    SegmentOutOfRange,
    TraceError,
)
from repro.obs import (
    EventBus,
    MetricsRegistry,
    TraceRecorder,
    TraceSummary,
    bind_standard_metrics,
    summarize_events,
)
from repro.library import (
    Cartridge,
    LibraryRequest,
    MultiDriveSystem,
    label_requests,
)
from repro.online import (
    BatchPolicy,
    CacheStats,
    DeadlineBatchPolicy,
    ResponseStats,
)
from repro.serve import (
    Gateway,
    ServeConfig,
    ServeReport,
    ServeRequest,
    TenantConfig,
    TenantLoadSpec,
    TenantStats,
    zipf_serve_stream,
)
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
)
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
    LocateCase,
    LocateTimeModel,
    ShortLocateDeviation,
    classify,
    rewind_time,
)
from repro.scheduling import (
    AutoScheduler,
    FifoScheduler,
    LossScheduler,
    OptScheduler,
    ReadEntireTapeScheduler,
    Request,
    ScanScheduler,
    Schedule,
    Scheduler,
    SltfScheduler,
    SortScheduler,
    WeaveScheduler,
    estimate_schedule_seconds,
    execute_schedule,
    get_scheduler,
    scheduler_names,
)

__all__ = [
    "AdmissionPolicy",
    "AlwaysAdmit",
    "AutoScheduler",
    "BatchPolicy",
    "BatchTooLarge",
    "CacheError",
    "CacheStats",
    "CachedLibrarySystem",
    "Cartridge",
    "CostThresholdAdmission",
    "DeadlineBatchPolicy",
    "DriveError",
    "EmptyBatchError",
    "EvenOddPerturbation",
    "EventBus",
    "EvictionPolicy",
    "FIFOPolicy",
    "FaultInjector",
    "FaultPlan",
    "FifoScheduler",
    "FrequencyThresholdAdmission",
    "GDSFPolicy",
    "Gateway",
    "GeometryError",
    "LRUPolicy",
    "LibraryRequest",
    "LocateCase",
    "LocateTimeModel",
    "LossScheduler",
    "MetricsError",
    "MetricsRegistry",
    "MultiDriveSystem",
    "NoSamplesError",
    "OptScheduler",
    "ReadEntireTapeScheduler",
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
    "ServeReport",
    "ServeRequest",
    "ShortLocateDeviation",
    "SimulatedDrive",
    "SltfScheduler",
    "SortScheduler",
    "TapeGeometry",
    "TenantConfig",
    "TenantLoadSpec",
    "TenantStats",
    "TraceError",
    "TraceRecorder",
    "TraceSummary",
    "WeaveScheduler",
    "__version__",
    "api",
    "bind_standard_metrics",
    "calibrate_key_points",
    "classify",
    "estimate_schedule_seconds",
    "execute_schedule",
    "generate_tape",
    "geometry_from_key_points",
    "get_scheduler",
    "ground_truth_drive",
    "ground_truth_model",
    "label_requests",
    "make_tape_pair",
    "rewind_time",
    "scheduler_names",
    "summarize_events",
    "tiny_tape",
    "zipf_serve_stream",
]
