"""Host timing that allows for the varying speed of a shared host.

On a host shared with other machines the speed of one core can change by
a factor of two for tens of seconds at a time, so raw host seconds of the
same work spread far more between runs than any change worth measuring.
Each timed part (one simulation, one sweep length, one set-up) is
therefore flanked by a fixed reference task, and the part's cost is its
host seconds divided by the reference's seconds measured around it.  The
reference does the kinds of work the simulator does (method calls on
small objects, dict updates and small NumPy operations) and uses no code
of the program, so a change to the program never changes it.

Costs convert back to seconds at :data:`REFERENCE_SECONDS`, the
reference's duration on an unloaded host of the kind the benchmark was
written on (2-core x86-64 VM, Python 3.11, NumPy 2.4).
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Nominal host seconds of one :func:`reference` call.
REFERENCE_SECONDS = 0.011


class _Item:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def value(self, z: float) -> float:
        return self.x * z + self.y


def reference() -> float:
    """The fixed reference task; returns a checksum so nothing is elided."""
    items = [_Item(i, i + 1) for i in range(20_000)]
    total = 0.0
    for item in items:
        total += item.value(0.5)
    table = dict(enumerate(items))
    for key in range(0, 20_000, 3):
        del table[key]
    array = np.arange(64.0)
    for _ in range(1_500):
        array = np.abs(array - 3.0) * 1.0001
    return total + len(table) + float(array[0])


def reference_seconds() -> float:
    """Host seconds of one reference call, now."""
    begin = time.perf_counter()
    reference()
    return time.perf_counter() - begin


class Parts:
    """Host seconds of the named parts of one repetition.

    ``seconds[name]`` is the part's host seconds; ``reference[name]`` is
    the mean of the reference's seconds just before and just after it.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.reference: dict[str, float] = {}

    @contextmanager
    def part(self, name: str):
        """Time the body of the ``with`` block as part ``name``."""
        before = reference_seconds()
        begin = time.perf_counter()
        yield
        self.seconds[name] = time.perf_counter() - begin
        self.reference[name] = (before + reference_seconds()) / 2

    @property
    def total_seconds(self) -> float:
        """Host seconds of all parts."""
        return sum(self.seconds.values())


def normalized_seconds(repetitions: list[Parts]) -> float:
    """Seconds of one repetition at the nominal reference speed.

    Per part, the median over the repetitions of seconds per reference
    second; summed over the parts and scaled by
    :data:`REFERENCE_SECONDS`.
    """
    return REFERENCE_SECONDS * sum(
        statistics.median(
            parts.seconds[name] / parts.reference[name]
            for parts in repetitions
        )
        for name in repetitions[0].seconds
    )
