"""The fixed-capacity disk staging cache.

A :class:`SegmentCache` models the disk tier of a hierarchical storage
manager: a bounded pool of 32 KB tape segments staged on disk.  It is
deliberately a *simulation-grade* cache — membership, accounting, and
replacement metadata, not payload bytes — so a million-segment cache is
a set of ints, and experiments can sweep capacities cheaply.

Granularity is one segment.  A multi-segment request hits only when
every segment it covers is resident (a partial hit still pays the
locate, so it is accounted as a miss).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.cache.admission import AdmissionPolicy, AlwaysAdmit
from repro.cache.policies import EvictionPolicy, LRUPolicy
from repro.exceptions import CacheError
from repro.obs.bus import EventBus
from repro.obs.events import (
    CacheAdmitted,
    CacheEvicted,
    CacheHit,
    CacheMiss,
    CacheRejected,
)
from repro.online.metrics import CacheStats


class SegmentCache:
    """Bounded segment cache with pluggable eviction and admission.

    Parameters
    ----------
    capacity_segments:
        Maximum resident segments (>= 1).  At the paper's 32 KB segment
        size a 1 GB staging disk holds 32,768 segments.
    policy:
        Eviction policy (default: :class:`~repro.cache.policies.LRUPolicy`).
    admission:
        Admission policy for demand fills (default: admit everything).
        Prefetch fills bypass admission — they are free — but never
        evict resident data (see :meth:`admit`).
    stats:
        Accounting sink; a fresh :class:`~repro.online.metrics.CacheStats`
        by default.
    bus:
        Optional :class:`~repro.obs.bus.EventBus`; publishes
        ``cache.hit`` / ``cache.miss`` / ``cache.admit`` /
        ``cache.reject`` / ``cache.evict`` events stamped with the bus
        clock.  A :class:`~repro.cache.library_tier.CachedLibrarySystem`
        attaches its own bus automatically.
    """

    def __init__(
        self,
        capacity_segments: int,
        policy: EvictionPolicy | None = None,
        admission: AdmissionPolicy | None = None,
        stats: CacheStats | None = None,
        bus: EventBus | None = None,
    ) -> None:
        if capacity_segments < 1:
            raise CacheError(
                f"capacity must be >= 1 segment, got {capacity_segments}"
            )
        self.capacity_segments = int(capacity_segments)
        self.policy = policy if policy is not None else LRUPolicy()
        self.admission = (
            admission if admission is not None else AlwaysAdmit()
        )
        self.stats = stats if stats is not None else CacheStats()
        self.bus = bus
        self._resident: set[int] = set()

    # -- state ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, segment: int) -> bool:
        return segment in self._resident

    def __iter__(self) -> Iterator[int]:
        return iter(self._resident)

    @property
    def free_segments(self) -> int:
        """Unused capacity, in segments."""
        return self.capacity_segments - len(self._resident)

    def contains_run(self, segment: int, length: int = 1) -> bool:
        """Is the whole run ``[segment, segment + length)`` resident?

        Pure membership — no statistics are recorded and no policy
        metadata is touched (use :meth:`lookup` on the request path).
        """
        return all(
            segment + offset in self._resident for offset in range(length)
        )

    # -- request path --------------------------------------------------------

    def lookup(self, segment: int, length: int = 1) -> bool:
        """Service a request against the cache, recording hit or miss.

        A hit touches every covered segment (promoting it per the
        eviction policy).  A partial residency is a miss: the drive
        must locate anyway, so nothing is promoted and the request is
        accounted entirely to tape.
        """
        if length < 1:
            raise CacheError(f"length must be >= 1, got {length}")
        if self.contains_run(segment, length):
            for offset in range(length):
                self.policy.on_hit(segment + offset)
            self.stats.record_hit(segments=length)
            if self.bus is not None:
                self.bus.publish(
                    CacheHit(
                        seconds=self.bus.now,
                        segment=segment,
                        length=length,
                    )
                )
            return True
        self.stats.record_miss(segments=length)
        if self.bus is not None:
            self.bus.publish(
                CacheMiss(
                    seconds=self.bus.now, segment=segment, length=length
                )
            )
        return False

    # -- fill path -----------------------------------------------------------

    def admit(
        self, segment: int, cost: float = 0.0, prefetch: bool = False
    ) -> bool:
        """Offer one fetched segment to the cache.

        Demand fills (``prefetch=False``) consult the admission policy
        and may evict.  Prefetch fills are opportunistic: the head
        passed over the segment anyway, so they bypass admission, but
        they only occupy *free* capacity — a prefetched segment never
        displaces resident data (cache-pollution guard).

        Returns True when the segment is resident afterwards.
        """
        if segment in self._resident:
            # Already staged: a re-fetch offer is a touch, not a fill.
            self.policy.on_hit(segment)
            return True
        if prefetch:
            if self.free_segments < 1:
                return False
        elif not self.admission.admit(segment, cost):
            self.stats.rejections += 1
            if self.bus is not None:
                self.bus.publish(
                    CacheRejected(seconds=self.bus.now, segment=segment)
                )
            return False
        while len(self._resident) >= self.capacity_segments:
            self._evict_one()
        self._resident.add(segment)
        self.policy.on_insert(segment, cost)
        if prefetch:
            self.stats.prefetch_insertions += 1
        else:
            self.stats.insertions += 1
        if self.bus is not None:
            self.bus.publish(
                CacheAdmitted(
                    seconds=self.bus.now,
                    segment=segment,
                    prefetch=prefetch,
                )
            )
        return True

    def admit_run(
        self,
        segments: Iterable[int],
        costs: Iterable[float],
        prefetch: bool = False,
    ) -> int:
        """Offer several segments; returns how many were admitted."""
        admitted = 0
        for segment, cost in zip(segments, costs):
            if self.admit(int(segment), float(cost), prefetch=prefetch):
                admitted += 1
        return admitted

    def invalidate(self, segment: int) -> bool:
        """Drop one segment (e.g. its object was rewritten on tape)."""
        if segment not in self._resident:
            return False
        self._resident.remove(segment)
        self.policy.discard(segment)
        return True

    def _evict_one(self) -> None:
        victim = self.policy.pop_victim()
        if victim not in self._resident:  # pragma: no cover - invariant
            raise CacheError(
                f"policy evicted non-resident segment {victim}"
            )
        self._resident.remove(victim)
        self.stats.evictions += 1
        if self.bus is not None:
            self.bus.publish(
                CacheEvicted(seconds=self.bus.now, segment=victim)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentCache({len(self._resident)}/{self.capacity_segments} "
            f"segments, policy={self.policy.name}, "
            f"admission={self.admission.name})"
        )
