"""Execute a schedule on a drive and measure it.

The executor is the "measurement" side of the paper's validation: the
same :class:`~repro.scheduling.schedule.Schedule` can be *estimated*
(with :mod:`repro.scheduling.estimator` against a model) and *executed*
(here, against a drive whose locate times may deviate from that model).

Before the first locate, the executor hands the drive the schedule's
planned hops (``schedule.origin``, then each request's out-position,
from :func:`~repro.scheduling.estimator.locate_sources`), and the drive
prices them in one vectorized model call.  Every request still makes
one ``locate`` and one ``read``, so the drive's bookkeeping, fault
draws and events are those of the scalar path, bit for bit.

With a ``bus`` attached, execution publishes one
:class:`~repro.obs.events.RequestLocated` and
:class:`~repro.obs.events.RequestRead` per request; when the caller
also passes the estimator's per-hop locate times
(``estimated_locate_seconds``), the locate events carry *estimated vs
actual* seconds — the per-hop model-error signal behind Figures 9–10.

With a :class:`~repro.resilience.RetryPolicy` (``policy=``), execution
is *failure-hardened*: a drive that raises typed
:class:`~repro.exceptions.DriveFault` exceptions (see
:class:`~repro.resilience.FaultInjector`) is retried in place with
deterministic backoff, and on exhaustion the result carries honest
per-request ``success`` flags — a failed request's completion time is
NaN, never fabricated.  Without a policy (the default) the code path
is byte-identical to the pre-resilience executor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import SEGMENT_TRANSFER_SECONDS
from repro.drive.simulated import (
    SimulatedDrive,
    TRACK_TURNAROUND_SECONDS,
)
from repro.exceptions import DriveFault, NoSamplesError
from repro.obs.events import (
    RequestFailed,
    RequestLocated,
    RequestRead,
    RequestRetried,
)
from repro.scheduling.estimator import locate_sources
from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class ExecutionResult:
    """Measured execution of one schedule.

    Attributes
    ----------
    total_seconds:
        Wall time from schedule start to the last byte of the last
        request (including fault penalties and retry backoff, if any).
    locate_seconds, transfer_seconds:
        Decomposition of the total (for the whole-tape READ plan the
        rewinds and turnarounds count as "locate").
    completion_seconds:
        Per-request completion times, in schedule order (feeds the
        response-time metrics of the online system).  NaN for requests
        that failed permanently.
    rewind_seconds:
        Rewind time contained in ``locate_seconds`` (nonzero only for
        the whole-tape READ plan: lead-in plus final rewind), so
        positioning can be reported net of rewinds:
        ``(locate - rewind) + transfer + rewind == total``.
    success:
        Per-request success flags in schedule order; ``None`` on the
        non-hardened path, where every serviced request succeeded by
        construction.
    attempts:
        Per-request attempt counts (``None`` on the non-hardened path).
    fault_seconds:
        Time lost to fault penalties and retry backoff — the part of
        ``total_seconds`` that is neither locating nor transferring.
    """

    total_seconds: float
    locate_seconds: float
    transfer_seconds: float
    completion_seconds: np.ndarray
    rewind_seconds: float = 0.0
    success: np.ndarray | None = None
    attempts: np.ndarray | None = None
    fault_seconds: float = 0.0

    @property
    def request_count(self) -> int:
        """Number of requests in the executed schedule."""
        return int(self.completion_seconds.size)

    @property
    def completed_count(self) -> int:
        """Requests that actually completed."""
        if self.success is None:
            return self.request_count
        return int(np.count_nonzero(self.success))

    @property
    def failed_count(self) -> int:
        """Requests that exhausted their retry budget."""
        return self.request_count - self.completed_count

    @property
    def all_succeeded(self) -> bool:
        """Did every request complete?"""
        return self.failed_count == 0

    def failed_positions(self) -> np.ndarray:
        """Schedule positions of the failed requests."""
        if self.success is None:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(~self.success).astype(np.int64)

    @property
    def seconds_per_request(self) -> float:
        """The paper's "time per locate" metric.

        Raises :class:`~repro.exceptions.NoSamplesError` for an empty
        execution — an average over zero requests is undefined, and
        silently reporting the raw total has hidden misconfigured
        experiments before (consistent with ``online.metrics``).
        """
        if self.request_count == 0:
            raise NoSamplesError(
                "no requests executed; seconds per request is undefined"
            )
        return self.total_seconds / self.request_count


def execute_schedule(
    drive: SimulatedDrive,
    schedule: Schedule,
    bus=None,
    estimated_locate_seconds=None,
    base_seconds: float | None = None,
    policy=None,
) -> ExecutionResult:
    """Run a schedule on a drive, returning the measured times.

    The drive must already be positioned at ``schedule.origin`` (the
    usual case: it is wherever the previous batch left it).

    Parameters
    ----------
    drive, schedule:
        What to run, and on what.
    bus:
        Optional :class:`~repro.obs.bus.EventBus`; publishes
        ``request.locate`` / ``request.read`` events per request.
        ``None`` (the default) publishes nothing and adds no overhead.
    estimated_locate_seconds:
        Per-hop locate-time estimates in schedule order (from
        :func:`repro.scheduling.estimator.locate_sequence_times`),
        attached to the published locate events as
        ``estimated_seconds``.  Ignored without a bus.
    base_seconds:
        Simulation time corresponding to the drive clock at call time;
        published events are stamped ``base_seconds + elapsed``.
        Defaults to the drive clock itself.
    policy:
        Optional :class:`~repro.resilience.RetryPolicy`.  With a
        policy, :class:`~repro.exceptions.DriveFault` exceptions from
        the drive are retried in place (bounded attempts, backoff,
        per-request timeout) and exhaustion is reported through the
        result's ``success`` flags.  Without one (the default), faults
        propagate and the code path is unchanged from the
        pre-resilience executor.  Ignored for whole-tape READ plans,
        whose single streaming pass has no per-request retry point.
    """
    if drive.position != schedule.origin:
        raise ValueError(
            f"drive at {drive.position}, schedule assumes "
            f"{schedule.origin}"
        )
    if (
        estimated_locate_seconds is not None
        and len(estimated_locate_seconds) != len(schedule)
    ):
        raise ValueError(
            f"{len(estimated_locate_seconds)} locate estimates for a "
            f"schedule of {len(schedule)} requests"
        )
    if schedule.whole_tape:
        return _execute_whole_tape(drive, schedule, bus, base_seconds)
    if len(schedule):
        drive.plan_locates(
            locate_sources(schedule, drive.geometry.total_segments),
            schedule.segments(),
        )
    if policy is not None:
        return _execute_hardened(
            drive, schedule, policy, bus, estimated_locate_seconds,
            base_seconds,
        )

    start = drive.clock_seconds
    base = start if base_seconds is None else base_seconds
    locate_total = 0.0
    transfer_total = 0.0
    completions = np.empty(len(schedule), dtype=np.float64)
    for index, request in enumerate(schedule):
        source = drive.position
        locate_seconds = drive.locate(request.segment)
        locate_total += locate_seconds
        if bus is not None:
            bus.publish(
                RequestLocated(
                    seconds=base + (drive.clock_seconds - start),
                    position=index,
                    source=source,
                    segment=request.segment,
                    actual_seconds=locate_seconds,
                    estimated_seconds=(
                        None if estimated_locate_seconds is None
                        else float(estimated_locate_seconds[index])
                    ),
                )
            )
        read_seconds = drive.read(request.length)
        transfer_total += read_seconds
        completions[index] = drive.clock_seconds - start
        if bus is not None:
            bus.publish(
                RequestRead(
                    seconds=base + float(completions[index]),
                    position=index,
                    segment=request.segment,
                    length=request.length,
                    actual_seconds=read_seconds,
                )
            )
    return ExecutionResult(
        total_seconds=drive.clock_seconds - start,
        locate_seconds=locate_total,
        transfer_seconds=transfer_total,
        completion_seconds=completions,
    )


def _wait(drive, seconds: float) -> None:
    """Charge backoff time to a drive that can model idle time."""
    wait = getattr(drive, "wait", None)
    if wait is not None and seconds > 0.0:
        wait(seconds)


def _execute_hardened(
    drive,
    schedule: Schedule,
    policy,
    bus=None,
    estimated_locate_seconds=None,
    base_seconds: float | None = None,
) -> ExecutionResult:
    """Retry-in-place execution against a fault-raising drive.

    On a drive that never raises, the arithmetic is identical to the
    plain path: every request locates once and reads once, in order.
    """
    start = drive.clock_seconds
    base = start if base_seconds is None else base_seconds
    locate_total = 0.0
    transfer_total = 0.0
    completions = np.full(len(schedule), np.nan, dtype=np.float64)
    success = np.zeros(len(schedule), dtype=bool)
    attempts_taken = np.zeros(len(schedule), dtype=np.int64)
    for index, request in enumerate(schedule):
        request_start = drive.clock_seconds
        attempts = 0
        # The first attempt always locates (even when already at the
        # segment, matching the plain path); after a fault the head may
        # or may not still be on target.
        needs_locate = True
        while True:
            attempts += 1
            try:
                if needs_locate:
                    source = drive.position
                    locate_seconds = drive.locate(request.segment)
                    locate_total += locate_seconds
                    needs_locate = False
                    if bus is not None:
                        bus.publish(
                            RequestLocated(
                                seconds=base
                                + (drive.clock_seconds - start),
                                position=index,
                                source=source,
                                segment=request.segment,
                                actual_seconds=locate_seconds,
                                estimated_seconds=(
                                    None
                                    if estimated_locate_seconds is None
                                    else float(
                                        estimated_locate_seconds[index]
                                    )
                                ),
                            )
                        )
                read_seconds = drive.read(request.length)
                transfer_total += read_seconds
                completions[index] = drive.clock_seconds - start
                success[index] = True
                if bus is not None:
                    bus.publish(
                        RequestRead(
                            seconds=base + float(completions[index]),
                            position=index,
                            segment=request.segment,
                            length=request.length,
                            actual_seconds=read_seconds,
                        )
                    )
                break
            # repro: noqa RPR003 -- this handler IS the retry
            # machinery RPR003 protects: it retries in place, charges
            # backoff, and surfaces exhaustion as RequestFailed
            except DriveFault as fault:
                needs_locate = drive.position != request.segment
                elapsed = drive.clock_seconds - request_start
                exhausted = attempts >= policy.max_attempts
                timed_out = elapsed >= policy.request_timeout_seconds
                if exhausted or timed_out:
                    if bus is not None:
                        bus.publish(
                            RequestFailed(
                                seconds=base
                                + (drive.clock_seconds - start),
                                position=index,
                                segment=request.segment,
                                attempts=attempts,
                                reason=(
                                    "retry budget exhausted"
                                    if exhausted
                                    else "request timeout"
                                ),
                            )
                        )
                    break
                backoff = policy.backoff_seconds(
                    attempts, request.segment
                )
                _wait(drive, backoff)
                if bus is not None:
                    bus.publish(
                        RequestRetried(
                            seconds=base + (drive.clock_seconds - start),
                            position=index,
                            segment=request.segment,
                            attempt=attempts,
                            backoff_seconds=backoff,
                            kind=fault.kind,
                        )
                    )
        attempts_taken[index] = attempts
    total = drive.clock_seconds - start
    return ExecutionResult(
        total_seconds=total,
        locate_seconds=locate_total,
        transfer_seconds=transfer_total,
        completion_seconds=completions,
        success=success,
        attempts=attempts_taken,
        fault_seconds=max(0.0, total - locate_total - transfer_total),
    )


def _execute_whole_tape(
    drive: SimulatedDrive,
    schedule: Schedule,
    bus=None,
    base_seconds: float | None = None,
) -> ExecutionResult:
    """READ plan: stream the whole tape; requests complete as they pass."""
    geo = drive.geometry
    transfer_seconds = getattr(
        drive.model, "segment_transfer_seconds", SEGMENT_TRANSFER_SECONDS
    )
    start = drive.clock_seconds
    base = start if base_seconds is None else base_seconds
    lead_in = 0.0
    if drive.position != 0:
        lead_in = drive.rewind()
    total = drive.read_entire_tape() + lead_in
    # read_entire_tape = sequential scan + turnarounds + final rewind;
    # back the rewind out of the known scan and turnaround components.
    final_rewind = (
        (total - lead_in)
        - geo.total_segments * transfer_seconds
        - (geo.num_tracks - 1) * TRACK_TURNAROUND_SECONDS
    )

    ends = np.fromiter(
        (min(r.end_segment, geo.total_segments) for r in schedule),
        dtype=np.int64,
        count=len(schedule),
    )
    tracks = geo.track_of(np.minimum(ends - 1, geo.total_segments - 1))
    completions = (
        lead_in
        + ends.astype(np.float64) * transfer_seconds
        + tracks.astype(np.float64) * TRACK_TURNAROUND_SECONDS
    )
    if bus is not None:
        for index, request in enumerate(schedule):
            bus.publish(
                RequestRead(
                    seconds=base + float(completions[index]),
                    position=index,
                    segment=request.segment,
                    length=request.length,
                    actual_seconds=request.length * transfer_seconds,
                )
            )
    transfer = len(schedule) * transfer_seconds
    return ExecutionResult(
        total_seconds=total,
        locate_seconds=total - transfer,
        transfer_seconds=transfer,
        completion_seconds=completions,
        rewind_seconds=lead_in + final_rewind,
    )
