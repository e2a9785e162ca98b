"""The one serving surface that the library, the cache tier and the
striped coordinator implement, and every layer above them consumes
(the stack order is in ``docs/SERVING.md``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable

from repro.library.kernel import EventKernel
from repro.obs.bus import EventBus
from repro.online.metrics import ResponseStats


class ServingTier(ABC):
    """A serving layer: outcome ledger, outcome hooks, run loop.

    Subclasses supply ``kernel``, ``bus``, :meth:`begin`,
    :meth:`check`, :meth:`submit`, :meth:`finish`, :meth:`labels` and
    :attr:`degraded`.  The hooks ``completion_listeners``
    (``(request, completion_seconds, drive)``) and
    ``failure_listeners`` (``(request)``) are called in kernel order
    with the very objects that were submitted.
    """

    kernel: EventKernel
    bus: EventBus | None

    def __init__(self) -> None:
        self.stats = ResponseStats()
        self.submitted = 0
        #: Requests that ended in a terminal failure, in failure order.
        self.failed: list = []
        self.completion_listeners: list[
            Callable[[object, float, int], None]
        ] = []
        self.failure_listeners: list[Callable[[object], None]] = []

    @property
    def completed(self) -> int:
        """Requests served so far."""
        return self.stats.count

    @property
    def lost(self) -> int:
        """Requests neither completed nor failed: zero after a run, or
        a serving bug."""
        return self.submitted - self.stats.count - len(self.failed)

    def run(self, requests: Iterable) -> ResponseStats:
        """:meth:`begin`, :meth:`submit` each request oldest first,
        then :meth:`finish`.  A tier runs once."""
        self.begin()
        for request in sorted(requests, key=lambda r: r.arrival_seconds):
            self.submit(request)
        return self.finish()

    @abstractmethod
    def begin(self) -> None:
        """Open the tier for :meth:`submit` (one-shot)."""

    @abstractmethod
    def check(self, request) -> None:
        """Raise what :meth:`submit` would raise; submit nothing."""

    @abstractmethod
    def submit(self, request) -> int:
        """Check and inject one request; returns its index.  Legal
        from kernel handlers while :meth:`finish` runs."""

    @abstractmethod
    def finish(self) -> ResponseStats:
        """Drain the kernel to quiescence; returns :attr:`stats`."""

    @abstractmethod
    def labels(self) -> list[str]:
        """The labels a request may address, sorted."""

    @property
    @abstractmethod
    def degraded(self) -> bool:
        """Has the serving path dropped to its fallback scheduler?"""

    def _record_completion(
        self, request, completion_seconds: float, drive: int
    ) -> None:
        self.stats.record(request.arrival_seconds, completion_seconds)
        for listener in self.completion_listeners:
            listener(request, completion_seconds, drive)

    def _record_failure(self, request) -> None:
        self.failed.append(request)
        for listener in self.failure_listeners:
            listener(request)
