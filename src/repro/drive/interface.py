"""Protocol implemented by every tape drive in this package."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.geometry.tape import TapeGeometry


@runtime_checkable
class TapeDrive(Protocol):
    """The operations schedulers and executors rely on.

    A drive wraps one mounted cartridge.  ``position`` is the absolute
    segment number the head is parked at (i.e. the next segment a
    ``read`` would return); ``clock_seconds`` is the accumulated busy
    time of the mechanism.
    """

    @property
    def geometry(self) -> TapeGeometry:
        """Geometry of the mounted cartridge."""
        ...

    @property
    def position(self) -> int:
        """Current head position (absolute segment number)."""
        ...

    @property
    def clock_seconds(self) -> float:
        """Accumulated elapsed mechanism time."""
        ...

    def plan_locates(self, sources, segments) -> None:
        """Announce the hops ``sources[k] -> segments[k]`` about to run.

        The executor calls this once per schedule, before the first
        :meth:`locate`.  A drive may price the whole sequence in one
        vectorized ``model.times`` call and use those times for the
        matching locates.  That is only sound under the model's
        batching contract: ``times(s, d)[k] == locate_time(s[k],
        d[k])`` bit for bit, and a model is a pure function of
        ``(source, destination)``.  Planning must not move the head,
        advance the clock or consume fault draws; a locate off the
        plan is priced as if no plan had been made.
        """
        ...

    def locate(self, segment: int) -> float:
        """Position the head to read ``segment``; return seconds taken."""
        ...

    def read(self, count: int = 1) -> float:
        """Read ``count`` segments forward; return seconds taken."""
        ...

    def rewind(self) -> float:
        """Rewind to the beginning of the tape; return seconds taken."""
        ...
