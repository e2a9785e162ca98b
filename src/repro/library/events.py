"""Typed simulation events of the library kernel.

These are *kernel* events — the internal currency of the discrete-event
simulation in :mod:`repro.library.kernel` — not observability events.
They never leave the simulation: the :class:`MultiDriveSystem` consumes
them and publishes regular :mod:`repro.obs.events` onto the bus where
external observers belong.

Each event class carries a ``priority`` that breaks ties between events
scheduled at the same simulated instant.  The ordering encodes the
serving loop's invariants: every request that has *arrived by* time t
is admitted before any batch is dispatched at t (the paper's
admit-then-dispatch serving order), mounts
complete before the robot picks its next job, and queue deadlines are
re-examined last, after the state they watch has settled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True, slots=True)
class SimEvent:
    """Base class for kernel events (ordered by time, then priority)."""

    #: Tie-break rank at equal timestamps (lower runs first).
    priority: ClassVar[int] = 50


@dataclass(frozen=True, slots=True)
class RequestArrived(SimEvent):
    """A library request reached the system."""

    priority: ClassVar[int] = 0

    request_index: int


@dataclass(frozen=True, slots=True)
class MountStarted(SimEvent):
    """A robot arm began an exchange for a drive bay."""

    priority: ClassVar[int] = 10

    drive: int
    label: str
    #: Arm performing the exchange (0 in a single-arm library).
    arm: int = 0


@dataclass(frozen=True, slots=True)
class MountCompleted(SimEvent):
    """A cartridge finished loading into a drive bay."""

    priority: ClassVar[int] = 20

    drive: int
    label: str
    requested_seconds: float
    robot_seconds: float
    #: Arm that performed the exchange (0 in a single-arm library).
    arm: int = 0


@dataclass(frozen=True, slots=True)
class BatchCompleted(SimEvent):
    """A drive finished executing a dispatched batch."""

    priority: ClassVar[int] = 20

    drive: int
    label: str
    batch_index: int


@dataclass(frozen=True, slots=True)
class RobotIdle(SimEvent):
    """A robot arm finished a job and can take the next one.

    Carries the arm index so each arm of a pool reacts only to its own
    idle transitions; the default keeps a bare ``RobotIdle()`` meaning
    "the single arm", as before the arm pool existed.
    """

    priority: ClassVar[int] = 25

    arm: int = 0


@dataclass(frozen=True, slots=True)
class BatchDispatched(SimEvent):
    """A drive bay was told to flush its tape's queue and execute.

    Dispatch ranks after arrivals at the same instant so the flushed
    batch includes every request whose arrival time equals the dispatch
    time — the serving loop's "admit everything that has arrived by
    now, then flush" ordering.
    """

    priority: ClassVar[int] = 30

    drive: int
    label: str


@dataclass(frozen=True, slots=True)
class QueueDeadline(SimEvent):
    """A queued request may have waited past the batching deadline."""

    priority: ClassVar[int] = 40

    label: str
