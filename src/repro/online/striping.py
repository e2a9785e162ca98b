"""Striped tape volumes — the [DK93]/[GMW95] related-work extension.

The paper cites striped tape organizations (Drapeau & Katz; Golubchik,
Muntz & Watson) as the complementary lever on tape performance:
scheduling attacks positioning *latency*, striping attacks *bandwidth
and parallelism* by spreading a logical volume across several drives.
This module combines the two on the library kernel: a logical address
space is striped round-robin over K cartridges, and a read of it fans
out into per-cartridge sub-requests that a
:class:`~repro.library.system.MultiDriveSystem` with those K
cartridges preloaded schedules per drive (LOSS by default) and runs in
parallel — a batch completes at the slowest drive's makespan.

Because each drive sees ~1/K of the requests, the per-request
positioning cost *rises* (smaller batches schedule worse — Figure 4),
so the speedup from K drives is sublinear: K drives buy less than K×.
``examples/striped_array.py`` quantifies that interaction.

Three pieces connect striping to the library:

* :class:`StripeMapping` — the round-robin shape: stripe unit ``u``
  lives on cartridge ``u mod K`` at physical unit ``u // K``.
* :class:`StripedVolume` — a *replicated* stripe mapping over named
  cartridges: replica ``r`` of stripe unit ``u`` lives on cartridge
  ``(u + r) mod K`` in that cartridge's replica-``r`` region (rotated
  placement, so losing any one cartridge loses exactly one copy of
  each affected unit).
* :class:`StripedReadCoordinator` — a serving tier that fans a logical
  read out into per-unit sub-requests to the tier below, falls back to
  surviving replicas when a sub-request exhausts the resilience
  layer's budgets (a *degraded read*), and enqueues background repair
  traffic that re-reads the surviving copy — competing with user
  traffic for drives, arms, and cartridges.
  The coordinator's own accounting closes the durability loop: every
  logical read ends as completed or failed, never silently lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import LibraryError, SegmentOutOfRange, UnknownTape
from repro.library.cartridge import Cartridge
from repro.library.requests import LibraryRequest
from repro.library.serving import ServingTier
from repro.obs.events import DegradedRead, RepairCompleted, RepairStarted
from repro.online.metrics import ResponseStats


@dataclass(frozen=True)
class StripeMapping:
    """Round-robin mapping of a logical space onto K cartridges.

    Logical segments are grouped into *stripe units* of
    ``stripe_unit`` segments; unit ``u`` lives on cartridge
    ``u mod K`` at physical unit ``u // K``.
    """

    drives: int
    stripe_unit: int
    units_per_drive: int

    def __post_init__(self) -> None:
        # Typed errors, not a ZeroDivisionError out of locate(): the
        # mapping is arithmetic, so a zero or negative shape would
        # otherwise surface far from the construction site.
        for name in ("drives", "stripe_unit", "units_per_drive"):
            value = getattr(self, name)
            if value < 1:
                raise LibraryError(
                    f"StripeMapping {name} must be >= 1, got {value}"
                )

    @property
    def logical_total(self) -> int:
        """Number of logical segments the volume exposes."""
        return self.drives * self.units_per_drive * self.stripe_unit

    def locate(self, logical_segment: int) -> tuple[int, int]:
        """Map a logical segment to ``(drive index, physical segment)``."""
        if not 0 <= logical_segment < self.logical_total:
            raise SegmentOutOfRange(logical_segment, self.logical_total)
        unit, offset = divmod(logical_segment, self.stripe_unit)
        drive = unit % self.drives
        physical_unit = unit // self.drives
        return drive, physical_unit * self.stripe_unit + offset

    def logical_of(self, drive: int, physical_segment: int) -> int:
        """Inverse of :meth:`locate`."""
        physical_unit, offset = divmod(physical_segment, self.stripe_unit)
        unit = physical_unit * self.drives + drive
        return unit * self.stripe_unit + offset


@dataclass(frozen=True)
class StripedVolume:
    """A replicated stripe mapping over named cartridges.

    The logical space of ``mapping`` is striped round-robin over the K
    ``labels``; each stripe unit additionally exists as ``replicas``
    copies with *rotated* placement — replica ``r`` of unit ``u`` lives
    on cartridge ``(u + r) mod K``, inside that cartridge's
    replica-``r`` region (physical units
    ``[r * units_per_drive, (r + 1) * units_per_drive)``).  Rotation
    means losing one cartridge costs exactly one copy of each unit it
    held, never two, so any single-cartridge failure leaves
    ``replicas - 1`` readable copies of everything.

    Each cartridge therefore needs
    ``replicas * units_per_drive * stripe_unit`` physical segments
    (checked by :func:`striped_volume`, which sizes a volume to fit a
    shelf).
    """

    labels: tuple[str, ...]
    mapping: StripeMapping
    replicas: int = 1

    def __post_init__(self) -> None:
        if len(self.labels) != self.mapping.drives:
            raise LibraryError(
                f"volume has {len(self.labels)} labels but the "
                f"mapping stripes over {self.mapping.drives}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise LibraryError("volume labels must be unique")
        if not 1 <= self.replicas <= len(self.labels):
            raise LibraryError(
                f"replicas must be in [1, {len(self.labels)}], "
                f"got {self.replicas}"
            )

    @property
    def logical_total(self) -> int:
        """Logical segments exposed by the volume."""
        return self.mapping.logical_total

    @property
    def total_units(self) -> int:
        """Stripe units in the logical space."""
        return self.mapping.drives * self.mapping.units_per_drive

    def unit_of(self, logical_segment: int) -> tuple[int, int]:
        """The ``(stripe unit, offset within it)`` of a logical segment."""
        if not 0 <= logical_segment < self.logical_total:
            raise SegmentOutOfRange(logical_segment, self.logical_total)
        return divmod(logical_segment, self.mapping.stripe_unit)

    def unit_location(self, unit: int, replica: int) -> tuple[str, int]:
        """Cartridge label and physical segment of a unit copy's start."""
        if not 0 <= unit < self.total_units:
            raise SegmentOutOfRange(unit, self.total_units)
        if not 0 <= replica < self.replicas:
            raise LibraryError(
                f"replica must be in [0, {self.replicas}), got {replica}"
            )
        k = len(self.labels)
        label = self.labels[(unit + replica) % k]
        physical_unit = (
            replica * self.mapping.units_per_drive + unit // k
        )
        return label, physical_unit * self.mapping.stripe_unit

    def locate(
        self, logical_segment: int, replica: int = 0
    ) -> tuple[str, int]:
        """Cartridge label and physical segment of one logical segment."""
        unit, offset = self.unit_of(logical_segment)
        label, start = self.unit_location(unit, replica)
        return label, start + offset

    def unit_runs(
        self, logical_segment: int, length: int
    ) -> list[tuple[int, int, int]]:
        """Split a logical range into per-unit contiguous runs.

        Returns ``(unit, offset within unit, run length)`` triples; each
        run stays inside one stripe unit, hence lands contiguously on
        one cartridge (for every replica) — the fan-out granule of the
        read coordinator.
        """
        if length < 1:
            raise LibraryError(f"length must be >= 1, got {length}")
        if logical_segment + length > self.logical_total:
            raise SegmentOutOfRange(
                logical_segment + length - 1, self.logical_total
            )
        runs: list[tuple[int, int, int]] = []
        remaining = length
        position = logical_segment
        while remaining > 0:
            unit, offset = self.unit_of(position)
            take = min(remaining, self.mapping.stripe_unit - offset)
            runs.append((unit, offset, take))
            position += take
            remaining -= take
        return runs


def striped_volume(
    cartridges: list[Cartridge],
    stripe_unit: int = 1,
    replicas: int = 1,
) -> StripedVolume:
    """Size a :class:`StripedVolume` to fit a shelf of cartridges.

    The logical capacity is what the *smallest* cartridge can hold
    after reserving room for every replica region.
    """
    if not cartridges:
        raise LibraryError("a striped volume needs cartridges")
    if stripe_unit < 1:
        raise LibraryError("stripe_unit must be >= 1")
    smallest = min(c.geometry.total_segments for c in cartridges)
    units = smallest // (stripe_unit * max(1, replicas))
    if units < 1:
        raise LibraryError(
            f"cartridges of {smallest} segments cannot hold "
            f"{replicas} replicas of stripe unit {stripe_unit}"
        )
    return StripedVolume(
        labels=tuple(c.label for c in cartridges),
        mapping=StripeMapping(
            drives=len(cartridges),
            stripe_unit=stripe_unit,
            units_per_drive=units,
        ),
        replicas=replicas,
    )


@dataclass
class _LogicalRead:
    """One user-visible read of the striped volume, in flight."""

    request: object
    #: Sub-requests still in flight (by object id).
    pending: set[int] = field(default_factory=set)
    completion_seconds: float = 0.0
    failed: bool = False


@dataclass
class _SubRead:
    read: _LogicalRead
    unit: int
    offset: int
    length: int
    replica: int


@dataclass
class _Repair:
    unit: int
    replica: int
    enqueued_seconds: float


class StripedReadCoordinator(ServingTier):
    """Replica-aware logical reads, a serving tier over any other.

    * :meth:`submit` takes a read of the volume — any object with
      ``arrival_seconds``, ``label`` (the one of :meth:`labels`),
      logical ``segment`` and ``length`` — and fans it out into
      per-stripe-unit sub-requests against the primary replica, so
      the read parallelizes across drive bays.  The listeners get the
      same object back, so a :class:`~repro.serve.ServeRequest`'s
      tenant rides through;
    * a sub-request the backend reports *failed* is re-issued against
      the next surviving replica — a **degraded read**
      (:class:`~repro.obs.events.DegradedRead`) that keeps the original
      arrival time, so the statistics charge the full wait;
    * each degraded unit gets one background **repair** read of the
      surviving copy (:class:`~repro.obs.events.RepairStarted` /
      :class:`~repro.obs.events.RepairCompleted`), competing with user
      requests for drives, arms, and cartridges;
    * a sub-request that fails on the *last* replica fails the whole
      read — a durability loss, surfaced in :attr:`failed`.  The
      chaos sweep gates on :attr:`lost` being zero.

    The backend's own ``failed`` list counts per-cartridge sub-request
    failures; durability lives here, where redundancy is visible.
    """

    def __init__(self, system: ServingTier, volume: StripedVolume) -> None:
        super().__init__()
        known = set(system.labels())
        for label in volume.labels:
            if label not in known:
                raise UnknownTape(f"no cartridge labelled {label!r}")
        self.system = system
        self.volume = volume
        self._label = "+".join(volume.labels)
        #: Sub-requests served from a non-primary replica.
        self.degraded_reads = 0
        self.repairs_started = 0
        self.repairs_completed = 0
        #: Repairs whose every source replica failed.
        self.repairs_failed = 0
        self._subs: dict[int, _SubRead] = {}
        self._repairs: dict[int, _Repair] = {}
        self._units_under_repair: set[int] = set()
        system.completion_listeners.append(self._on_complete)
        system.failure_listeners.append(self._on_failure)

    @property
    def kernel(self):
        return self.system.kernel

    @property
    def bus(self):
        return self.system.bus

    @property
    def degraded(self) -> bool:
        return self.system.degraded

    def labels(self) -> list[str]:
        """The volume's one label: its cartridge labels joined by ``+``."""
        return [self._label]

    def begin(self) -> None:
        self.system.begin()

    def finish(self) -> ResponseStats:
        self.system.finish()
        return self.stats

    def check(self, request) -> None:
        """Refuse a read off the volume, or one whose sub-requests —
        every replica's, so a degraded re-read cannot fail mid-run —
        the backend would refuse."""
        self._plan(request)

    def submit(self, request) -> int:
        """Check the whole read, then count it and fan it out."""
        runs = self._plan(request)
        read = _LogicalRead(request=request)
        self.submitted += 1
        for unit, offset, length in runs:
            self._issue(read, unit, offset, length, replica=0)
        return self.submitted - 1

    def _plan(self, request) -> list[tuple[int, int, int]]:
        if request.label != self._label:
            raise UnknownTape(f"no volume labelled {request.label!r}")
        runs = self.volume.unit_runs(request.segment, request.length)
        for unit, offset, length in runs:
            for replica in range(self.volume.replicas):
                label, start = self.volume.unit_location(unit, replica)
                self.system.check(
                    LibraryRequest(
                        request.arrival_seconds, label, start + offset,
                        length,
                    )
                )
        return runs

    def _issue(
        self,
        read: _LogicalRead,
        unit: int,
        offset: int,
        length: int,
        replica: int,
    ) -> None:
        label, start = self.volume.unit_location(unit, replica)
        request = LibraryRequest(
            arrival_seconds=read.request.arrival_seconds,
            label=label,
            segment=start + offset,
            length=length,
        )
        self._subs[id(request)] = _SubRead(
            read=read,
            unit=unit,
            offset=offset,
            length=length,
            replica=replica,
        )
        read.pending.add(id(request))
        self.system.submit(request)

    def _on_complete(
        self, request, completion_seconds: float, drive: int
    ) -> None:
        repair = self._repairs.pop(id(request), None)
        if repair is not None:
            self._finish_repair(repair, completion_seconds)
            return
        sub = self._subs.pop(id(request), None)
        if sub is None:
            return
        read = sub.read
        read.pending.discard(id(request))
        read.completion_seconds = max(
            read.completion_seconds, completion_seconds
        )
        if not read.pending and not read.failed:
            self._record_completion(
                read.request, read.completion_seconds, drive
            )

    def _on_failure(self, request) -> None:
        repair = self._repairs.pop(id(request), None)
        if repair is not None:
            self._retry_repair(repair)
            return
        sub = self._subs.pop(id(request), None)
        if sub is None:
            return
        read = sub.read
        read.pending.discard(id(request))
        next_replica = sub.replica + 1
        if next_replica < self.volume.replicas:
            # Degraded read: the unit survives on the next rotated
            # copy.  The re-issued sub keeps the original arrival, so
            # the eventual completion is charged the full wait.
            self.degraded_reads += 1
            label, start = self.volume.unit_location(
                sub.unit, next_replica
            )
            if self.bus is not None:
                self.bus.publish(
                    DegradedRead(
                        seconds=self.kernel.now_seconds,
                        label=label,
                        segment=start + sub.offset,
                        replica=next_replica,
                        logical_segment=(
                            sub.unit * self.volume.mapping.stripe_unit
                            + sub.offset
                        ),
                    )
                )
            self._issue(
                read, sub.unit, sub.offset, sub.length, next_replica
            )
            self._start_repair(sub.unit, next_replica)
            return
        # Every replica exhausted: a durability loss, surfaced (the
        # read is failed, not lost).
        if not read.failed:
            read.failed = True
            self._record_failure(read.request)

    # -- background repair ---------------------------------------------------

    def _start_repair(self, unit: int, source_replica: int) -> None:
        if unit in self._units_under_repair:
            return
        self._units_under_repair.add(unit)
        self.repairs_started += 1
        now = self.kernel.now_seconds
        repair = _Repair(
            unit=unit,
            replica=source_replica,
            enqueued_seconds=now,
        )
        label, start = self.volume.unit_location(unit, source_replica)
        if self.bus is not None:
            self.bus.publish(
                RepairStarted(
                    seconds=now,
                    label=label,
                    segment=start,
                    length=self.volume.mapping.stripe_unit,
                    replica=source_replica,
                )
            )
        self._submit_repair(repair)

    def _submit_repair(self, repair: _Repair) -> None:
        label, start = self.volume.unit_location(
            repair.unit, repair.replica
        )
        request = LibraryRequest(
            arrival_seconds=self.kernel.now_seconds,
            label=label,
            segment=start,
            length=self.volume.mapping.stripe_unit,
        )
        self._repairs[id(request)] = repair
        self.system.submit(request)

    def _retry_repair(self, repair: _Repair) -> None:
        next_replica = repair.replica + 1
        if next_replica < self.volume.replicas:
            repair.replica = next_replica
            self._submit_repair(repair)
            return
        self.repairs_failed += 1
        self._units_under_repair.discard(repair.unit)

    def _finish_repair(
        self, repair: _Repair, completion_seconds: float
    ) -> None:
        self.repairs_completed += 1
        self._units_under_repair.discard(repair.unit)
        label, start = self.volume.unit_location(
            repair.unit, repair.replica
        )
        if self.bus is not None:
            self.bus.publish(
                RepairCompleted(
                    seconds=completion_seconds,
                    label=label,
                    segment=start,
                    length=self.volume.mapping.stripe_unit,
                    replica=repair.replica,
                    wait_seconds=(
                        completion_seconds - repair.enqueued_seconds
                    ),
                )
            )
