"""The disk staging cache in front of the tape library.

The paper's setting is an *online* store: random reads hit tape only
after missing a disk staging tier.  This module adds that tier by
*injection*: ``CachedLibrarySystem(system=MultiDriveSystem(...))``
wraps a fresh library (one drive and one preloaded tape for the
paper's single-drive setting) and serves lookups from a shared
:class:`~repro.cache.store.SegmentCache` first.  Hits complete at
(simulated) arrival time (disk latency is negligible against 10–100 s
locates); misses flow into the backend unchanged.  When a backend
batch *completes*, the segments it fetched are staged
(admission-controlled, failure-filtered) and the segments the head
passed over are prefetched for free, per drive bay.
Staging at completion keeps the tier causal: a hit is only ever served
from data the tape has already read.

The cache is shared across cartridges, so resident segments are keyed
in a *global* address space: each cartridge (sorted by label) owns a
contiguous block of keys offset by the total segments of the
cartridges before it.  Tape-local coordinates never leak into the
cache and cross-tape collisions cannot happen: :meth:`submit` runs the
library's own :meth:`~repro.library.MultiDriveSystem.check`, so a read
past the end of its cartridge is refused before it can reach the
next cartridge's keys.

The tier is a :class:`~repro.library.serving.ServingTier`, so a
:class:`~repro.serve.Gateway` or a
:class:`~repro.online.StripedReadCoordinator` stacks on top of the
cache exactly as on the bare library.  The tier itself sits directly
on the library: staging reads the library's per-batch hook, bay head
positions and cartridge models (see ``docs/SERVING.md``).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import ClassVar

from repro.cache.prefetch import opportunistic_prefetch
from repro.cache.store import SegmentCache
from repro.exceptions import LibraryError
from repro.library.events import SimEvent
from repro.library.requests import LibraryRequest
from repro.library.serving import ServingTier
from repro.library.system import MultiDriveSystem
from repro.obs.events import RequestCompleted
from repro.online.metrics import CacheStats, ResponseStats

#: Default staging capacity: a 1 GB disk of the paper's 32 KB segments.
DEFAULT_CACHE_CAPACITY_SEGMENTS = 32_768


@dataclass(frozen=True, slots=True)
class CacheLookup(SimEvent):
    """A tier request reached the cache at its arrival instant.

    Ranks after gateway admissions (−10) and before backend arrivals
    (0) at the same instant, so the lookup sees the cache exactly as
    the request's arrival time left it and a miss enters the backend
    queue in arrival order.
    """

    priority: ClassVar[int] = -5

    request_index: int


class _ShiftedCache:
    """Admission adapter translating one tape's segments to global keys."""

    def __init__(self, cache: SegmentCache, offset: int) -> None:
        self._cache = cache
        self._offset = offset

    def admit_run(
        self,
        segments: Iterable[int],
        costs: Iterable[float],
        prefetch: bool = False,
    ) -> int:
        return self._cache.admit_run(
            [segment + self._offset for segment in segments],
            costs,
            prefetch=prefetch,
        )


class CachedLibrarySystem(ServingTier):
    """A shared disk staging tier over an injected multi-drive backend.

    Parameters
    ----------
    system:
        A fresh (un-run) :class:`~repro.library.MultiDriveSystem`.
        The tier drives it through its opened serving surface; build
        it with ``bus=`` to put cache and library events on one
        stream.
    cache:
        The staging tier; defaults to an LRU/always-admit cache of
        :data:`DEFAULT_CACHE_CAPACITY_SEGMENTS`
        segments.  Keys are global (see module docstring) — do not
        share one cache between tiers with different shelves.
    prefetch:
        Stage the segments each batch's head passes over (see
        :mod:`repro.cache.prefetch`, whose coalescing distance and
        per-batch cap apply).
    """

    def __init__(
        self,
        *,
        system: MultiDriveSystem,
        cache: SegmentCache | None = None,
        prefetch: bool = True,
    ) -> None:
        super().__init__()
        self.system = system
        self.cache = (
            cache
            if cache is not None
            else SegmentCache(DEFAULT_CACHE_CAPACITY_SEGMENTS)
        )
        self.prefetch = prefetch
        self.kernel = system.kernel
        self.bus = system.bus
        if self.bus is not None and self.cache.bus is None:
            self.cache.bus = self.bus
        #: Cache hits served without touching the backend.  Hits
        #: report ``drive`` −1 to the completion listeners.
        self.hits = 0
        self._requests: list[LibraryRequest] = []
        # Global key space: each label's block starts where the
        # previous (sorted) label's ends.
        self._offsets: dict[str, int] = {}
        offset = 0
        for label in system.labels():
            self._offsets[label] = offset
            offset += system.cartridge(label).geometry.total_segments

        self.kernel.on(CacheLookup, self._on_lookup)
        system.completion_listeners.append(self._record_completion)
        system.failure_listeners.append(self._record_failure)
        system.batch_listeners.append(self._on_backend_batch)

    # -- tier state --------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/byte accounting of the staging tier."""
        return self.cache.stats

    @property
    def degraded(self) -> bool:
        """Has the backend dropped to its fallback scheduler?"""
        return self.system.degraded

    def labels(self) -> list[str]:
        """All cartridge labels, sorted."""
        return self.system.labels()

    # -- the run -----------------------------------------------------------

    def begin(self) -> None:
        """Open the tier for :meth:`submit` (one-shot)."""
        self.system.begin()

    def check(self, request: LibraryRequest) -> None:
        """The library's own request check (the cache keys by it)."""
        self.system.check(request)

    def submit(self, request: LibraryRequest) -> int:
        """Inject one request; the cache answers at its arrival time."""
        self.check(request)
        index = len(self._requests)
        self._requests.append(request)
        self.submitted += 1
        self.kernel.schedule(
            max(self.kernel.now_seconds, request.arrival_seconds),
            CacheLookup(request_index=index),
        )
        return index

    def finish(self) -> ResponseStats:
        """Drain the backend to quiescence; returns the tier stats."""
        self.system.finish()
        return self.stats

    # -- serving path ------------------------------------------------------

    def _on_lookup(self, event: CacheLookup) -> None:
        if self.bus is not None:
            self.bus.set_time(self.kernel.now_seconds)
        request = self._requests[event.request_index]
        key = self._offsets[request.label] + request.segment
        if self.cache.lookup(key, request.length):
            self.hits += 1
            completion = self.kernel.now_seconds
            self._record_completion(request, completion, -1)
            if self.bus is not None:
                # position/drive −1 mark a cache hit in the stream.
                self.bus.publish(
                    RequestCompleted(
                        seconds=completion,
                        position=-1,
                        segment=request.segment,
                        length=request.length,
                        arrival_seconds=request.arrival_seconds,
                        completion_seconds=completion,
                        drive=-1,
                    )
                )
            return
        self.system.submit(request)

    # -- staging -----------------------------------------------------------

    def _on_backend_batch(
        self, label: str, drive: int, batch, schedule, result
    ) -> None:
        bay = self.system.bays[drive]
        if bay.drive is None:  # pragma: no cover - bay mounted mid-batch
            raise LibraryError(
                "batch completed on a bay with no mounted drive"
            )
        head = bay.drive.position
        offset = self._offsets[label]
        model = self.system.cartridge(label).model
        ok = result.success
        seen: set[int] = set()
        fetched: list[int] = []
        for position, request in enumerate(schedule):
            if ok is not None and not ok[position]:
                continue
            for segment in range(request.segment, request.end_segment):
                if segment not in seen:
                    seen.add(segment)
                    fetched.append(segment)
        if fetched:
            costs = model.locate_times(head, fetched)
            self.cache.admit_run(
                [segment + offset for segment in fetched], costs
            )
        if self.prefetch and (ok is None or result.all_succeeded):
            opportunistic_prefetch(
                _ShiftedCache(self.cache, offset),
                model,
                head,
                schedule.requests,
            )
