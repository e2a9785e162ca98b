"""The event-driven tertiary storage system: the one serving core.

:class:`MultiDriveSystem` runs the paper's online serving loop —
requests arrive over time, accumulate in a batch queue, and whenever a
drive is free the queued batch is handed to a scheduling algorithm and
executed, the head starting each batch wherever the previous one
finished — on N drives and M cartridges over the
:class:`~repro.library.kernel.EventKernel`.  The paper's own setting,
one drive serving batches from one tape, is the 1-drive system with
that tape preloaded::

    MultiDriveSystem([Cartridge("tape", geometry)], drives=1,
                     preload=["tape"])

Requests address named cartridges, accumulate in per-tape batch
queues, and idle drive bays pick tapes via a pluggable
:class:`~repro.library.policies.AssignmentPolicy` (which tape next) and
:class:`~repro.library.policies.ExchangePolicy` (when to give one up).
Cartridge exchanges go through an
:class:`~repro.library.robot.ArmPool` of ``arms`` robot arms routed by
an :class:`~repro.library.policies.ArmAssignmentPolicy`; each exchange
costs rewind-to-BOT plus one exchange to shelve the outgoing cartridge,
and one exchange to load the incoming one, which starts at segment 0.
A 1-arm pool serializes exchanges exactly like the original shared arm
(bit-identical, pinned by the arm-pool golden tests).

With ``aging=`` the library also models media wear
(:class:`~repro.library.aging.MediaAgingModel`): every completed mount
cycle of a cartridge drifts the *actual* drive behaviour away from the
pristine model the scheduler plans with and grows a bad-spot read-fault
rate, so old tapes produce exactly the estimated-vs-actual gap of the
paper's Fig. 8/9 sensitivity studies — plus real failures for the
resilience layer (and the striped-volume degraded reads above it) to
absorb.

Per-drive batch execution uses the configured scheduling algorithm
(LOSS/SLTF/SCAN/...), the executor, and the resilience layer's retry
policy and bounded requeues.  A 1-drive, 1-cartridge system with the
cartridge preloaded reproduces the retired single-drive serving loop
bit-identically: ``tests/library/golden/single_drive_reference.json``
froze that loop's outputs and the equivalence tests pin them.

With ``bus=`` the whole library publishes onto one stream: the queue
publishes admit events (stamped at each request's arrival) and
dispatch events, the scheduler's estimate is published with each
computed schedule, the executor publishes per-request locate/read
events carrying *estimated vs actual* locate seconds, and the system
publishes per-request completions (at each request's read, not at
batch end) plus per-batch spans whose phase durations partition the
measured execution (see ``docs/OBSERVABILITY.md``).  Batch, request
and fault events carry a ``drive`` field, mounts/unmounts carry the
bay, and each completed exchange additionally publishes
:class:`~repro.obs.events.MountWaitRecorded` so mount waits and robot
occupancy are first-class metrics (see
:func:`~repro.obs.metrics.bind_standard_metrics`).

The full :class:`~repro.resilience.ResilienceConfig` contract holds
here, budgets included: blowing the wall-clock scheduling budget or
the simulated execution budget on any bay trips the system-wide sticky
degraded mode (the schedulers are shared, so "this algorithm is too
slow" is a library-wide fact, not a per-bay one) and every later batch
on every bay uses the fallback algorithm.

The system is the bottom :class:`~repro.library.serving.ServingTier`:
:meth:`~MultiDriveSystem.begin` / :meth:`~MultiDriveSystem.submit` /
:meth:`~MultiDriveSystem.finish` let layers above inject requests
while the simulation runs, and the ``completion_listeners`` /
``failure_listeners`` / ``batch_listeners`` hooks observe outcomes
synchronously, in kernel order, with the original request objects
(identity preserved across requeues).
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from repro.drive.simulated import SimulatedDrive
from repro.exceptions import LibraryError, SegmentOutOfRange, UnknownTape
from repro.library import events as sim
from repro.library.aging import MediaAgingModel
from repro.library.cartridge import Cartridge, DEFAULT_EXCHANGE_SECONDS
from repro.library.drives import DriveBay, DriveState
from repro.library.kernel import EventKernel
from repro.library.policies import (
    ArmAssignmentPolicy,
    AssignmentPolicy,
    DrainBatchExchange,
    ExchangePolicy,
    TapeAffinityAssignment,
    TapeQueueView,
)
from repro.library.requests import LibraryRequest
from repro.library.robot import ArmPool, ExchangeJob
from repro.library.serving import ServingTier
from repro.obs.bus import EventBus
from repro.obs.events import (
    ArmExchangeRecorded,
    BatchCompleted,
    BatchStarted,
    DegradedMode,
    MountWaitRecorded,
    RequestCompleted,
    RequestFailed,
    ScheduleComputed,
    TapeMounted,
    TapeUnmounted,
)
from repro.online.batch_queue import BatchPolicy, BatchQueue
from repro.online.metrics import ResponseStats
from repro.resilience.injection import FaultInjector, FaultPlan
from repro.resilience.policy import ResilienceConfig
from repro.scheduling.base import Scheduler, get_scheduler
from repro.scheduling.estimator import locate_sequence_times
from repro.scheduling.executor import execute_schedule
from repro.scheduling.loss import LossScheduler
from repro.scheduling.request import Request


@dataclass(frozen=True)
class BatchRecord:
    """One executed batch, for reporting.

    The per-phase decomposition satisfies ``locate_seconds +
    transfer_seconds + rewind_seconds + fault_seconds ==
    execution_seconds`` (to float round-off); ``queue_wait_seconds`` is
    the summed pre-execution wait of the batch's requests and
    ``estimated_seconds`` the scheduler's model estimate.  ``drive``
    and ``label`` name the bay and the tape the batch ran on.
    """

    start_seconds: float
    size: int
    algorithm: str
    execution_seconds: float
    queue_wait_seconds: float = 0.0
    locate_seconds: float = 0.0
    transfer_seconds: float = 0.0
    rewind_seconds: float = 0.0
    estimated_seconds: float | None = None
    fault_seconds: float = 0.0
    failed: int = 0
    drive: int = 0
    label: str = ""

    @property
    def phase_seconds(self) -> float:
        """Sum of the execution phases (equals ``execution_seconds``)."""
        return (
            self.locate_seconds
            + self.transfer_seconds
            + self.rewind_seconds
            + self.fault_seconds
        )


def _derived_seed(seed: int, drive_index: int, mount_index: int) -> int:
    """Per-(drive, mount) fault-plan seed.

    The very first mount on bay 0 keeps the base seed unchanged, so a
    preloaded 1-drive system draws the plan's own fault stream (the
    single-drive equivalence depends on it); later mounts get
    independent deterministic streams.
    """
    if drive_index == 0 and mount_index == 0:
        return seed
    return (
        seed
        ^ ((drive_index + 1) * 0x9E3779B97F4A7C15)
        ^ ((mount_index + 1) * 0xD6E8FEB86659FD93)
    ) & 0xFFFFFFFFFFFFFFFF


class MultiDriveSystem(ServingTier):
    """N drives, M cartridges, K robot arms, in simulated time.

    Parameters
    ----------
    cartridges:
        The shelf (labels must be unique).
    drives:
        Number of drive bays.
    arms:
        Number of robot arms in the pool (default 1 — the original
        single shared arm, bit-identical to it).
    arm_assignment:
        Which arm performs each exchange when ``arms > 1``
        (default: least-busy; see
        :class:`~repro.library.policies.ArmAssignmentPolicy`).
    scheduler:
        Per-batch scheduling algorithm (default: the paper's LOSS),
        shared by every bay.
    policy:
        Batching policy of each per-tape queue.
    assignment:
        Which waiting tape an idle bay mounts
        (default: tape affinity — longest-waiting tape first).
    exchange:
        When a bay releases a tape that still has queued requests
        (default: drain the mounted tape first).
    exchange_seconds:
        Robot time per cartridge movement.
    bus:
        Optional :class:`~repro.obs.bus.EventBus` instrumenting the
        whole library (see module docstring).
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig`; enables
        in-place retries, bounded requeues, and the degraded-mode
        schedule/execution budgets (see module docstring).
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; every mounted
        drive is wrapped in a
        :class:`~repro.resilience.FaultInjector` with a per-(bay,
        mount) derived seed.  Implies a default ``resilience`` config
        if none was given.
    aging:
        Optional :class:`~repro.library.aging.MediaAgingModel`; each
        cartridge's drive-side behaviour degrades with its completed
        mount cycles (locate drift plus growing bad-spot read faults)
        while the scheduler keeps planning with the pristine model.
        Implies a default ``resilience`` config if the model can
        inject faults and none was given.
    preload:
        Labels mounted (at no cost, position 0) into bays 0..k-1
        before time zero — the paper's "robot has just loaded a new
        tape" initial condition, and the hook that makes the 1-drive
        equivalence exact.
    """

    def __init__(
        self,
        cartridges: Sequence[Cartridge],
        *,  # configuration is keyword-only, per the package-wide
        # constructor convention (see docs/API.md).
        drives: int = 2,
        arms: int = 1,
        arm_assignment: ArmAssignmentPolicy | None = None,
        scheduler: Scheduler | None = None,
        policy: BatchPolicy | None = None,
        assignment: AssignmentPolicy | None = None,
        exchange: ExchangePolicy | None = None,
        exchange_seconds: float = DEFAULT_EXCHANGE_SECONDS,
        bus: EventBus | None = None,
        resilience: ResilienceConfig | None = None,
        fault_plan: FaultPlan | None = None,
        aging: MediaAgingModel | None = None,
        preload: Sequence[str] | None = None,
    ) -> None:
        if drives < 1:
            raise LibraryError("drives must be >= 1")
        labels = [c.label for c in cartridges]
        if len(set(labels)) != len(labels):
            raise LibraryError("cartridge labels must be unique")
        if not labels:
            raise LibraryError("at least one cartridge is required")
        super().__init__()
        self._shelf: dict[str, Cartridge] = {
            c.label: c for c in cartridges
        }
        self.scheduler = (
            scheduler if scheduler is not None else LossScheduler()
        )
        self.policy = policy if policy is not None else BatchPolicy()
        self.assignment = (
            assignment if assignment is not None
            else TapeAffinityAssignment()
        )
        self.exchange = (
            exchange if exchange is not None else DrainBatchExchange()
        )
        self.bus = bus
        self.resilience = resilience
        self.fault_plan = fault_plan
        self.aging = aging
        if fault_plan is not None and fault_plan.any_faults:
            if self.resilience is None:
                self.resilience = ResilienceConfig()
        if aging is not None and aging.any_faults:
            if self.resilience is None:
                self.resilience = ResilienceConfig()

        self.kernel = EventKernel()
        self.robot = ArmPool(
            self.kernel,
            exchange_seconds,
            arms=arms,
            assignment=arm_assignment,
        )
        self.bays = [DriveBay(index) for index in range(drives)]
        self._queues: dict[str, BatchQueue] = {
            label: BatchQueue(policy=self.policy, bus=bus)
            for label in sorted(self._shelf)
        }
        self.batches: list[BatchRecord] = []
        #: Times a failed request re-entered its tape's queue.
        self.requeues = 0
        #: Per-batch hook of the cache tier's staging:
        #: ``listener(label, drive, batch, schedule, result)``.
        self.batch_listeners: list[Callable[..., None]] = []
        self._requeue_counts: dict[int, int] = {}
        self._degraded = False
        self._fallback_scheduler: Scheduler | None = None
        self._claims: dict[str, int] = {}
        #: Labels whose in-progress mount came from an exchange-policy
        #: preemption: they dispatch the moment the mount completes.
        self._preempt_mounts: set[str] = set()
        self._pending_unload: dict[int, tuple[str, float]] = {}
        self._in_flight: dict[int, tuple] = {}
        self._requests: list[LibraryRequest] = []
        self._mount_count = 0
        #: Completed mount cycles per cartridge label (media wear).
        self._label_mounts: dict[str, int] = {}
        self._ran = False

        self.kernel.on(sim.RequestArrived, self._on_arrival)
        self.kernel.on(sim.MountStarted, self._on_mount_started)
        self.kernel.on(sim.MountCompleted, self._on_mount_completed)
        self.kernel.on(sim.BatchDispatched, self._on_batch_dispatched)
        self.kernel.on(sim.BatchCompleted, self._on_batch_completed)
        self.kernel.on(sim.QueueDeadline, self._on_deadline)

        preloaded: set[str] = set()
        for index, label in enumerate(preload or ()):
            if index >= drives:
                raise LibraryError(
                    f"cannot preload {len(preload)} cartridges into "
                    f"{drives} drives"
                )
            if label in preloaded:
                raise LibraryError(
                    f"cartridge {label!r} preloaded twice"
                )
            preloaded.add(label)
            bay = self.bays[index]
            bay.drive = self._build_drive(self.cartridge(label), index)
            bay.label = label
            bay.state = DriveState.IDLE
            self._mount_count += 1

    # -- state -------------------------------------------------------------

    @property
    def clock_seconds(self) -> float:
        """The simulated clock (kernel time)."""
        return self.kernel.now_seconds

    @property
    def exchanges(self) -> int:
        """Robot exchanges performed (preloads are free and uncounted)."""
        return self.robot.exchanges

    @property
    def degraded(self) -> bool:
        """Has the library dropped to its fallback scheduler?"""
        return self._degraded

    def _active_scheduler(self) -> Scheduler:
        """The scheduler for the next batch (fallback once degraded)."""
        if self._degraded:
            if self._fallback_scheduler is None:
                self._fallback_scheduler = get_scheduler(
                    self.resilience.fallback_algorithm
                )
            return self._fallback_scheduler
        return self.scheduler

    def _enter_degraded(self, reason: str, now: float) -> None:
        """Trip degraded mode (sticky, library-wide: the schedulers
        are shared, so every bay's later batches use the fallback)."""
        if self._degraded:
            return
        self._degraded = True
        if self.bus is not None:
            self.bus.publish(
                DegradedMode(
                    seconds=now,
                    batch_index=len(self.batches) - 1,
                    reason=reason,
                    from_algorithm=self.scheduler.name,
                    to_algorithm=self.resilience.fallback_algorithm,
                )
            )

    def labels(self) -> list[str]:
        """All cartridge labels, sorted."""
        return sorted(self._shelf)

    def cartridge(self, label: str) -> Cartridge:
        """Look up a shelved cartridge."""
        try:
            return self._shelf[label]
        except KeyError:
            raise UnknownTape(f"no cartridge labelled {label!r}") from None

    def queue_depth(self, label: str) -> int:
        """Queued (undispatched) requests for one tape."""
        try:
            return len(self._queues[label])
        except KeyError:
            raise UnknownTape(f"no cartridge labelled {label!r}") from None

    # -- the run ------------------------------------------------------------

    def begin(self) -> None:
        """Open the system for :meth:`submit` (one-shot, like
        :meth:`run`)."""
        if self._ran:
            raise LibraryError(
                "this system already ran; build a fresh instance"
            )
        self._ran = True

    def check(self, request: LibraryRequest) -> None:
        """Reject a malformed request before anything is scheduled.

        An unknown label raises :class:`~repro.exceptions.UnknownTape`,
        a read that is not wholly on its cartridge raises
        :class:`~repro.exceptions.SegmentOutOfRange`, and a length
        below 1 raises :class:`~repro.exceptions.LibraryError` — each
        would otherwise fail inside :meth:`finish`, in the scheduler.
        """
        cartridge = self.cartridge(request.label)
        if request.length < 1:
            raise LibraryError(
                f"length must be >= 1, got {request.length}"
            )
        total = cartridge.geometry.total_segments
        if not 0 <= request.segment < total:
            raise SegmentOutOfRange(request.segment, total)
        if request.segment + request.length > total:
            raise SegmentOutOfRange(
                request.segment + request.length - 1, total
            )

    def submit(self, request: LibraryRequest) -> int:
        """Inject one request; returns its submission index.

        Legal between :meth:`begin` and :meth:`finish`, including from
        kernel handlers *while* :meth:`finish` runs (how the serve
        gateway releases admitted requests mid-simulation).  A request
        whose arrival time is already in the past enters its queue at
        the current kernel time; its response time still counts from
        the true arrival.  A malformed request raises here (see
        :meth:`check`).
        """
        if not self._ran:
            raise LibraryError("call begin() before submit()")
        self.check(request)
        index = len(self._requests)
        self._requests.append(request)
        self.submitted += 1
        self.kernel.schedule(
            max(self.kernel.now_seconds, request.arrival_seconds),
            sim.RequestArrived(request_index=index),
        )
        return index

    def finish(self) -> ResponseStats:
        """Drain the kernel to quiescence and return the statistics."""
        if not self._ran:
            raise LibraryError("call begin() before finish()")
        self.kernel.run()
        # A policy with flush_when_idle=False and no deadline can
        # strand a final partial batch; drain it rather than lose it.
        while self._queued_total() > 0:
            if not self._pump(force=True):
                raise LibraryError(
                    "stranded requests with no dispatchable bay"
                )
            self.kernel.run()
        return self.stats

    def _queued_total(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def _set_time(self) -> None:
        if self.bus is not None:
            self.bus.set_time(self.kernel.now_seconds)

    # -- drive construction --------------------------------------------------

    def _build_drive(self, cartridge: Cartridge, drive_index: int):
        cycles = self._label_mounts.get(cartridge.label, 0)
        self._label_mounts[cartridge.label] = cycles + 1
        model = cartridge.model
        if self.aging is not None:
            # The drive gets the aged (actual) behaviour; the
            # scheduler keeps planning with the pristine
            # ``cartridge.model`` — the Fig. 8/9 estimated-vs-actual
            # gap, driven by wear.  Zero completed cycles returns the
            # base model unwrapped.
            model = self.aging.aged_model(
                model, cartridge.label, cycles
            )
        drive = SimulatedDrive(
            model, initial_position=0, bus=self.bus
        )
        plan = self._effective_fault_plan(drive_index, cycles)
        if plan is not None:
            return FaultInjector(drive, plan, bus=self.bus)
        return drive

    def _effective_fault_plan(
        self, drive_index: int, cycles: int
    ) -> FaultPlan | None:
        """The injected-fault plan for one mount: the configured plan
        (per-(bay, mount) derived seed) plus the mounted cartridge's
        accumulated bad-spot read-fault rate, or None when neither
        injects anything."""
        aged_read = 0.0
        if self.aging is not None and cycles > 0:
            aged_read = self.aging.read_fault_probability(cycles)
        if self.fault_plan is not None and self.fault_plan.any_faults:
            plan = replace(
                self.fault_plan,
                seed=_derived_seed(
                    self.fault_plan.seed, drive_index, self._mount_count
                ),
            )
            if aged_read > 0.0:
                plan = replace(
                    plan,
                    read_fault_probability=min(
                        1.0,
                        plan.read_fault_probability + aged_read,
                    ),
                )
            return plan
        if aged_read > 0.0:
            assert self.aging is not None
            return FaultPlan(
                read_fault_probability=aged_read,
                seed=_derived_seed(
                    self.aging.seed, drive_index, self._mount_count
                ),
            )
        return None

    # -- dispatch pump -------------------------------------------------------

    def _candidate_views(self) -> list[TapeQueueView]:
        """Tapes a bay could mount now: queued work, unclaimed, not
        mounted elsewhere."""
        mounted = {
            bay.label for bay in self.bays if bay.label is not None
        }
        views = []
        for label in sorted(self._queues):
            queue = self._queues[label]
            if not len(queue):
                continue
            if label in self._claims or label in mounted:
                continue
            oldest = queue.oldest_arrival
            views.append(
                TapeQueueView(
                    label=label,
                    depth=len(queue),
                    oldest_arrival_seconds=(
                        0.0 if oldest is None else oldest
                    ),
                )
            )
        return views

    def _pump(self, force: bool = False) -> bool:
        """Give every available bay a dispatch or a mount if one is due.

        Returns True when any bay was put to work.  ``force`` bypasses
        the batching policy's readiness test (end-of-run drain).
        """
        progressed = False
        now = self.kernel.now_seconds
        for bay in self.bays:
            if not bay.available:
                continue
            action = self._choose_action(bay, now, force)
            if action is None:
                continue
            kind, label = action
            if kind == "dispatch":
                bay.state = DriveState.EXECUTING
                self.kernel.schedule(
                    now,
                    sim.BatchDispatched(drive=bay.index, label=label),
                )
            else:
                self._request_mount(
                    bay, label, now,
                    dispatch_on_mount=(kind == "preempt"),
                )
            progressed = True
        return progressed

    def _choose_action(
        self, bay: DriveBay, now: float, force: bool
    ) -> tuple[str, str] | None:
        candidates = self._candidate_views()
        mounted = bay.label
        if mounted is not None:
            queue = self._queues[mounted]
            if len(queue):
                if force or queue.ready(now, drive_idle=True):
                    return ("dispatch", mounted)
                oldest = queue.oldest_arrival
                mounted_view = TapeQueueView(
                    label=mounted,
                    depth=len(queue),
                    oldest_arrival_seconds=(
                        0.0 if oldest is None else oldest
                    ),
                )
                if not candidates or not self.exchange.should_release(
                    mounted_view, candidates, now
                ):
                    return None
                # A preemption must make progress: the tape mounted in
                # place of this one dispatches as soon as it loads,
                # whatever the batching policy says, or two non-ready
                # tapes would swap a bay back and forth forever.
                choice = self.assignment.choose(mounted, candidates, now)
                if choice is None or choice == mounted:
                    return None
                return ("preempt", choice)
            choice = self.assignment.choose(mounted, candidates, now)
            if choice is None or choice == mounted:
                return None
            return ("mount", choice)
        choice = self.assignment.choose(None, candidates, now)
        if choice is None:
            return None
        return ("mount", choice)

    def _request_mount(
        self,
        bay: DriveBay,
        label: str,
        now: float,
        dispatch_on_mount: bool = False,
    ) -> None:
        self._claims[label] = bay.index
        if dispatch_on_mount:
            self._preempt_mounts.add(label)
        unload_label = bay.label
        rewind_seconds = 0.0
        if bay.drive is not None and unload_label is not None:
            # Deterministic: the bay does nothing else between this
            # request and the exchange, so rewinding the (discarded)
            # simulator now fixes the unload time.
            rewind_seconds = bay.drive.rewind()
            self._pending_unload[bay.index] = (
                unload_label, rewind_seconds
            )
        bay.state = DriveState.MOUNTING
        bay.label = None
        bay.drive = None
        self.robot.submit(
            ExchangeJob(
                drive=bay.index,
                label=label,
                requested_seconds=now,
                unload_label=unload_label,
                rewind_seconds=rewind_seconds,
            )
        )

    # -- kernel event handlers -----------------------------------------------

    def _on_arrival(self, event: sim.RequestArrived) -> None:
        self._set_time()
        request = self._requests[event.request_index]
        queue = self._queues[request.label]
        # The request object itself goes through the queue (it quacks
        # like a TimedRequest), so completions and failures hand the
        # original object — label, identity, and any subclass fields
        # intact — back to the listeners.
        queue.push(request)
        self._schedule_deadline(
            request.label, request.arrival_seconds
        )
        self._pump()

    def _schedule_deadline(
        self, label: str, arrival_seconds: float
    ) -> None:
        deadline = self.policy.next_deadline_seconds(arrival_seconds)
        if math.isinf(deadline):
            return
        self.kernel.schedule(
            max(self.kernel.now_seconds, deadline),
            sim.QueueDeadline(label=label),
        )

    def _on_deadline(self, event: sim.QueueDeadline) -> None:
        self._set_time()
        self._pump()

    def _on_mount_started(self, event: sim.MountStarted) -> None:
        self._set_time()
        unload = self._pending_unload.pop(event.drive, None)
        if unload is not None and self.bus is not None:
            old_label, rewind_seconds = unload
            self.bus.publish(
                TapeUnmounted(
                    seconds=self.kernel.now_seconds
                    + rewind_seconds
                    + self.robot.exchange_seconds,
                    label=old_label,
                    rewind_seconds=rewind_seconds,
                    drive=event.drive,
                )
            )

    def _on_mount_completed(self, event: sim.MountCompleted) -> None:
        self._set_time()
        now = self.kernel.now_seconds
        bay = self.bays[event.drive]
        bay.drive = self._build_drive(
            self.cartridge(event.label), event.drive
        )
        bay.label = event.label
        bay.state = DriveState.IDLE
        bay.mounts += 1
        self._mount_count += 1
        self._claims.pop(event.label, None)
        if self.bus is not None:
            self.bus.publish(
                TapeMounted(
                    seconds=now,
                    label=event.label,
                    exchange_seconds=self.robot.exchange_seconds,
                    drive=event.drive,
                )
            )
            self.bus.publish(
                MountWaitRecorded(
                    seconds=now,
                    drive=event.drive,
                    label=event.label,
                    wait_seconds=now - event.requested_seconds,
                    robot_seconds=event.robot_seconds,
                    arm=event.arm,
                )
            )
            self.bus.publish(
                ArmExchangeRecorded(
                    seconds=now,
                    arm=event.arm,
                    drive=event.drive,
                    label=event.label,
                    busy_seconds=event.robot_seconds,
                    queued=self.robot.arms[event.arm].queued,
                )
            )
        if (
            event.label in self._preempt_mounts
            and len(self._queues[event.label])
        ):
            self._preempt_mounts.discard(event.label)
            bay.state = DriveState.EXECUTING
            self.kernel.schedule(
                now,
                sim.BatchDispatched(
                    drive=event.drive, label=event.label
                ),
            )
            return
        self._preempt_mounts.discard(event.label)
        self._pump()

    def _on_batch_dispatched(self, event: sim.BatchDispatched) -> None:
        self._set_time()
        now = self.kernel.now_seconds
        bay = self.bays[event.drive]
        queue = self._queues[event.label]
        batch = queue.flush()
        if not batch:  # pragma: no cover - queues only grow pre-flush
            bay.state = DriveState.IDLE
            self._pump()
            return
        drive = bay.require_drive()
        model = self.cartridge(event.label).model
        requests = [
            Request(item.segment, item.length) for item in batch
        ]
        schedule_started = time.perf_counter()
        schedule = self._active_scheduler().schedule(
            model, drive.position, requests
        )
        schedule_wall = time.perf_counter() - schedule_started
        batch_index = len(self.batches)
        estimated_locates = None
        if self.bus is not None:
            self.bus.publish(
                ScheduleComputed(
                    seconds=now,
                    algorithm=schedule.algorithm,
                    batch_size=len(schedule),
                    origin=schedule.origin,
                    estimated_seconds=schedule.estimated_seconds,
                )
            )
            self.bus.publish(
                BatchStarted(
                    seconds=now,
                    batch_index=batch_index,
                    batch_size=len(batch),
                    origin=schedule.origin,
                    drive=event.drive,
                )
            )
            if not schedule.whole_tape:
                estimated_locates = locate_sequence_times(
                    model, schedule
                )
        result = execute_schedule(
            drive,
            schedule,
            bus=self.bus,
            estimated_locate_seconds=estimated_locates,
            base_seconds=now,
            policy=(
                None if self.resilience is None
                else self.resilience.retry
            ),
        )
        queue_wait = sum(
            now - item.arrival_seconds for item in batch
        )
        self.batches.append(
            BatchRecord(
                start_seconds=now,
                size=len(batch),
                algorithm=schedule.algorithm,
                execution_seconds=result.total_seconds,
                queue_wait_seconds=queue_wait,
                locate_seconds=(
                    result.locate_seconds - result.rewind_seconds
                ),
                transfer_seconds=result.transfer_seconds,
                rewind_seconds=result.rewind_seconds,
                estimated_seconds=schedule.estimated_seconds,
                fault_seconds=result.fault_seconds,
                failed=result.failed_count,
                drive=event.drive,
                label=event.label,
            )
        )
        bay.busy_seconds += result.total_seconds
        self._in_flight[batch_index] = (batch, schedule, result)
        self.kernel.schedule(
            now + result.total_seconds,
            sim.BatchCompleted(
                drive=event.drive,
                label=event.label,
                batch_index=batch_index,
            ),
        )
        if self.resilience is not None:
            if schedule_wall > self.resilience.schedule_wall_budget_seconds:
                self._enter_degraded(
                    f"scheduling took {schedule_wall:.3f} s of wall "
                    "clock, over budget",
                    now + result.total_seconds,
                )
            elif (
                result.total_seconds
                > self.resilience.execution_budget_seconds
            ):
                self._enter_degraded(
                    f"batch execution took {result.total_seconds:.1f} "
                    "simulated s, over budget",
                    now + result.total_seconds,
                )

    def _on_batch_completed(self, event: sim.BatchCompleted) -> None:
        self._set_time()
        now = self.kernel.now_seconds
        bay = self.bays[event.drive]
        batch, schedule, result = self._in_flight.pop(
            event.batch_index
        )
        record = self.batches[event.batch_index]
        by_key: dict[tuple[int, int], list[LibraryRequest]] = {}
        for item in batch:
            by_key.setdefault(
                (item.segment, item.length), []
            ).append(item)
        for position, request in enumerate(schedule):
            item = by_key[(request.segment, request.length)].pop(0)
            if result.success is None or result.success[position]:
                self._requeue_counts.pop(id(item), None)
                self._complete(
                    item,
                    record.start_seconds
                    + float(result.completion_seconds[position]),
                    position,
                    event.drive,
                )
            else:
                self._handle_failure(
                    item, position, event.label, now
                )
        if self.bus is not None:
            self.bus.publish(
                BatchCompleted(
                    seconds=now,
                    batch_index=event.batch_index,
                    algorithm=record.algorithm,
                    batch_size=record.size,
                    queue_wait_seconds=record.queue_wait_seconds,
                    locate_seconds=record.locate_seconds,
                    transfer_seconds=record.transfer_seconds,
                    rewind_seconds=record.rewind_seconds,
                    total_seconds=record.execution_seconds,
                    estimated_seconds=record.estimated_seconds,
                    fault_seconds=record.fault_seconds,
                    drive=event.drive,
                )
            )
        for listener in self.batch_listeners:
            listener(event.label, event.drive, batch, schedule, result)
        bay.state = DriveState.IDLE
        bay.batches += 1
        self._pump()

    def _complete(
        self,
        item: LibraryRequest,
        completion_seconds: float,
        position: int,
        drive_index: int,
    ) -> None:
        self._record_completion(item, completion_seconds, drive_index)
        if self.bus is not None:
            self.bus.publish(
                RequestCompleted(
                    seconds=completion_seconds,
                    position=position,
                    segment=item.segment,
                    length=item.length,
                    arrival_seconds=item.arrival_seconds,
                    completion_seconds=completion_seconds,
                    drive=drive_index,
                )
            )

    def _handle_failure(
        self,
        item: LibraryRequest,
        position: int,
        label: str,
        now: float,
    ) -> None:
        count = self._requeue_counts.get(id(item), 0)
        if (
            self.resilience is not None
            and count < self.resilience.max_requeues
        ):
            self._requeue_counts[id(item)] = count + 1
            self.requeues += 1
            self._queues[label].push(item)
            self._schedule_deadline(label, item.arrival_seconds)
            return
        self._requeue_counts.pop(id(item), None)
        self._record_failure(item)
        if self.bus is not None:
            self.bus.publish(
                RequestFailed(
                    seconds=now,
                    position=position,
                    segment=item.segment,
                    attempts=count + 1,
                    reason="requeue budget exhausted",
                )
            )
