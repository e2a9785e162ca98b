"""The discrete-event simulation core of the multi-drive library.

A single-drive serving loop can advance time with an explicit "next
interesting instant" computation — fine for one drive, impossible for
N drives, one robot arm, and M cartridge queues all progressing
concurrently.  :class:`EventKernel` is the classic DES core instead: a
monotonic simulated clock and a heap of timed, typed events.
Components schedule future events; the kernel pops them in
``(seconds, priority, insertion)`` order and dispatches to registered
handlers, so causality at equal timestamps is deterministic and
explicit (see :mod:`repro.library.events` for the priority ranking).

The kernel knows nothing about tapes: it is a generic scheduler for
:class:`~repro.library.events.SimEvent` objects, kept separate so the
system layer above stays testable against hand-built event sequences.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable

from repro.exceptions import LibraryError
from repro.library.events import SimEvent

#: A kernel handler: called with the popped event at its firing time.
SimHandler = Callable[[SimEvent], None]


class EventKernel:
    """Monotonic simulated clock plus an ordered event heap.

    Events scheduled at the same instant fire in ``priority`` order
    (see :mod:`repro.library.events`), and at equal priority in
    scheduling order — a total, deterministic order, so a run replays
    bit-identically.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, SimEvent]] = []
        self._sequence = itertools.count()
        self._handlers: dict[type[SimEvent], list[SimHandler]] = {}
        self.now_seconds = 0.0
        #: Events dispatched so far (scheduling an event does not
        #: count; popping it does).
        self.events_dispatched = 0

    def on(self, event_type: type[SimEvent], handler: SimHandler) -> None:
        """Register a handler for one event type (append order kept)."""
        self._handlers.setdefault(event_type, []).append(handler)

    def schedule(self, seconds: float, event: SimEvent) -> None:
        """Enqueue an event at absolute simulated time ``seconds``.

        The clock is monotonic: scheduling into the past is a
        programming error, not a silent reordering.
        """
        if seconds < self.now_seconds:
            raise LibraryError(
                f"cannot schedule {type(event).__name__} at "
                f"{seconds:.6f}s; the clock is already at "
                f"{self.now_seconds:.6f}s"
            )
        heapq.heappush(
            self._heap,
            (seconds, type(event).priority, next(self._sequence), event),
        )

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def idle(self) -> bool:
        """Is the event heap empty?"""
        return not self._heap

    def peek_seconds(self) -> float | None:
        """Firing time of the next event, if any."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> SimEvent | None:
        """Pop and dispatch one event; returns it (None when idle)."""
        if not self._heap:
            return None
        seconds, _, _, event = heapq.heappop(self._heap)
        self.now_seconds = seconds
        self.events_dispatched += 1
        for handler in self._handlers.get(type(event), ()):
            handler(event)
        return event

    def run(self, until_seconds: float | None = None) -> int:
        """Dispatch events until the heap drains (or the horizon).

        Returns the number of events dispatched by this call.  With
        ``until_seconds``, events at or before the horizon fire and the
        rest stay queued (the clock does not jump past them).
        """
        dispatched = 0
        while self._heap:
            if (
                until_seconds is not None
                and self._heap[0][0] > until_seconds
            ):
                break
            self.step()
            dispatched += 1
        return dispatched
