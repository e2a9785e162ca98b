"""The SLA-aware serving gateway.

:class:`Gateway` is the admission-and-fairness layer in front of a
:class:`~repro.library.MultiDriveSystem` (or anything exposing its
``begin``/``submit``/``finish`` + listener surface, such as the cache
tier's :class:`~repro.cache.library_tier.CachedLibrarySystem`).  Per
request, in simulated time:

1. **Admission** — the request enters at its arrival instant
   (:class:`~repro.serve.events.GatewayArrival` on the shared kernel).
   A tenant at its ``max_outstanding`` cap is shed immediately with a
   typed :class:`~repro.exceptions.TenantOverloaded`.
2. **Fair queuing** — admitted requests wait in their tenant's queue
   of a :class:`~repro.serve.fair.WeightedFairQueues`; releases are
   weighted start-time fair.
3. **Backpressure** — at most ``max_backend_depth`` released requests
   may be in the backend at once; completions (and terminal failures)
   free slots and trigger further releases.
4. **Load shedding** — a queued request whose deadline passed by
   release time is shed with a typed
   :class:`~repro.exceptions.DeadlineExpired` (when ``shed_expired``).

Nothing is ever dropped silently: every submitted request ends as a
completion, a (backend-typed) failure, or a shed with an
:class:`~repro.exceptions.AdmissionRejected` instance on the
:attr:`Gateway.shed` ledger — :attr:`ServeReport.lost` is zero by
construction and the test suite pins it.

Per-tenant response-time distributions live in a
:class:`~repro.obs.metrics.MetricsRegistry` histogram each (p50 / p99
/ p999 in :class:`TenantStats`), and with a bus attached the gateway
publishes the ``serve.*`` observability events.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from repro.exceptions import (
    AdmissionRejected,
    DeadlineExpired,
    ServeError,
    TenantOverloaded,
    UnknownTenant,
)
from repro.library.system import MultiDriveSystem
from repro.obs.bus import EventBus
from repro.obs.events import (
    ServeAdmitted,
    ServeCompleted,
    ServeReleased,
    ServeShed,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.config import ServeConfig, TenantConfig
from repro.serve.events import GatewayArrival
from repro.serve.fair import WeightedFairQueues
from repro.serve.requests import ServeRequest


@dataclass(frozen=True)
class ShedRecord:
    """One shed request and its typed rejection."""

    request: ServeRequest
    rejection: AdmissionRejected
    seconds: float


@dataclass(frozen=True)
class TenantStats:
    """One tenant's serving outcome.

    ``submitted = completed + failed + shed`` after a finished run;
    percentiles come from the gateway's per-tenant response-time
    histogram and are ``None`` when the tenant completed nothing.
    """

    name: str
    weight: float
    submitted: int
    admitted: int
    released: int
    completed: int
    failed: int
    shed: int
    mean_seconds: float | None
    p50_seconds: float | None
    p99_seconds: float | None
    p999_seconds: float | None
    slo_seconds: float
    slo_violations: int

    @property
    def slo_ok(self) -> bool:
        """Is the tenant's p999 within its SLO target?

        Vacuously true with no target (``inf``) or no completions.
        """
        if math.isinf(self.slo_seconds) or self.p999_seconds is None:
            return True
        return self.p999_seconds <= self.slo_seconds


@dataclass(frozen=True)
class ServeReport:
    """The gateway's run outcome, tenant by tenant."""

    tenants: tuple[TenantStats, ...]
    submitted: int
    completed: int
    failed: int
    shed: int
    degraded: bool

    @property
    def lost(self) -> int:
        """Requests with no recorded outcome (zero by construction)."""
        return self.submitted - self.completed - self.failed - self.shed

    @property
    def all_accounted(self) -> bool:
        """Did every request end in a typed outcome?"""
        return self.lost == 0

    @property
    def slo_ok(self) -> bool:
        """Did every tenant make its p999 target?"""
        return all(tenant.slo_ok for tenant in self.tenants)

    def headers(self) -> list[str]:
        """Columns of :meth:`rows`."""
        return [
            "tenant", "weight", "submitted", "admitted", "released",
            "completed", "failed", "shed", "mean (s)", "p50 (s)",
            "p99 (s)", "p999 (s)", "slo (s)", "violations", "slo ok",
        ]

    def rows(self) -> list[list]:
        """One row per tenant."""
        return [
            [
                tenant.name,
                tenant.weight,
                tenant.submitted,
                tenant.admitted,
                tenant.released,
                tenant.completed,
                tenant.failed,
                tenant.shed,
                tenant.mean_seconds,
                tenant.p50_seconds,
                tenant.p99_seconds,
                tenant.p999_seconds,
                tenant.slo_seconds,
                tenant.slo_violations,
                tenant.slo_ok,
            ]
            for tenant in self.tenants
        ]

    def to_dict(self) -> list[dict]:
        """Records for export."""
        return [dict(zip(self.headers(), row)) for row in self.rows()]


class Gateway:
    """Admit, order, and release tenant requests into a backend.

    Parameters
    ----------
    config:
        The :class:`~repro.serve.config.ServeConfig` — tenants,
        backpressure, shedding.
    system:
        The backend: a fresh (un-run) :class:`MultiDriveSystem` or a
        compatible tier.  The gateway drives it through
        ``begin``/``submit``/``finish`` and observes outcomes through
        its listener hooks; build it with the same ``bus`` to get one
        unified event stream.
    bus:
        Optional :class:`~repro.obs.bus.EventBus` for the ``serve.*``
        events; defaults to the backend's bus.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        system: MultiDriveSystem,
        bus: EventBus | None = None,
    ) -> None:
        self.config = config
        self.system = system
        self.kernel = system.kernel
        self.bus = bus if bus is not None else system.bus
        self.metrics = MetricsRegistry()
        self._tenants: dict[str, TenantConfig] = {
            tenant.name: tenant for tenant in config.tenants
        }
        self._fair: WeightedFairQueues[ServeRequest] = WeightedFairQueues(
            {tenant.name: tenant.weight for tenant in config.tenants}
        )
        self._outstanding = dict.fromkeys(self._tenants, 0)
        self._submitted = dict.fromkeys(self._tenants, 0)
        self._admitted = dict.fromkeys(self._tenants, 0)
        self._released = dict.fromkeys(self._tenants, 0)
        self._completed = dict.fromkeys(self._tenants, 0)
        self._failed = dict.fromkeys(self._tenants, 0)
        self._shed_counts = dict.fromkeys(self._tenants, 0)
        self._violations = dict.fromkeys(self._tenants, 0)
        self._backend_depth = 0
        self._requests: list[ServeRequest] = []
        #: Every shed request with its typed rejection, in shed order.
        self.shed: list[ShedRecord] = []
        self._ran = False

        self.kernel.on(GatewayArrival, self._on_arrival)
        system.completion_listeners.append(self._on_backend_complete)
        system.failure_listeners.append(self._on_backend_failure)

    # -- the run -----------------------------------------------------------

    def run(self, requests: Iterable[ServeRequest]) -> ServeReport:
        """Serve a tenant-tagged request stream to completion.

        Accepts any iterable (materialized once); order does not
        matter.  A gateway instance runs once, like its backend.
        """
        if self._ran:
            raise ServeError(
                "this gateway already ran; build a fresh instance"
            )
        self._ran = True
        items = sorted(requests, key=lambda r: r.arrival_seconds)
        labels = set(self.system.labels())
        for request in items:
            if request.tenant not in self._tenants:
                raise UnknownTenant(
                    f"no tenant named {request.tenant!r}"
                )
            if request.label not in labels:
                raise ServeError(
                    f"request addresses unknown cartridge "
                    f"{request.label!r}"
                )
        self._requests = items
        self.system.begin()
        for index, request in enumerate(items):
            self.kernel.schedule(
                request.arrival_seconds,
                GatewayArrival(request_index=index),
            )
        self.system.finish()
        if len(self._fair):
            raise ServeError(
                "gateway queues still hold requests after the "
                "backend drained — backpressure accounting bug"
            )
        return self.report()

    # -- admission ---------------------------------------------------------

    def _on_arrival(self, event: GatewayArrival) -> None:
        now = self.kernel.now_seconds
        request = self._requests[event.request_index]
        tenant = self._tenants[request.tenant]
        self._submitted[tenant.name] += 1
        if (
            tenant.max_outstanding is not None
            and self._outstanding[tenant.name] >= tenant.max_outstanding
        ):
            self._shed(
                request,
                TenantOverloaded(
                    f"tenant at its cap of {tenant.max_outstanding} "
                    "outstanding requests",
                    tenant=tenant.name,
                    segment=request.segment,
                    arrival_seconds=request.arrival_seconds,
                ),
                now,
            )
            return
        self._outstanding[tenant.name] += 1
        self._admitted[tenant.name] += 1
        self._fair.push(tenant.name, request)
        if self.bus is not None:
            self.bus.publish(
                ServeAdmitted(
                    seconds=now,
                    tenant=tenant.name,
                    segment=request.segment,
                    queue_depth=self._fair.depth(tenant.name),
                )
            )
        self._drain(now)

    # -- release -----------------------------------------------------------

    def _drain(self, now: float) -> None:
        """Release fair-queued requests while the backend has room."""
        limit = self.config.max_backend_depth
        while len(self._fair) and (
            limit is None or self._backend_depth < limit
        ):
            name, request = self._fair.pop()
            tenant = self._tenants[name]
            if (
                self.config.shed_expired
                and now - request.arrival_seconds > tenant.deadline_seconds
            ):
                self._outstanding[name] -= 1
                self._shed(
                    request,
                    DeadlineExpired(
                        f"queued {now - request.arrival_seconds:.1f} s, "
                        f"past the {tenant.deadline_seconds:.1f} s "
                        "deadline",
                        tenant=name,
                        segment=request.segment,
                        arrival_seconds=request.arrival_seconds,
                    ),
                    now,
                )
                continue
            self._backend_depth += 1
            self._released[name] += 1
            self.system.submit(request)
            if self.bus is not None:
                self.bus.publish(
                    ServeReleased(
                        seconds=now,
                        tenant=name,
                        segment=request.segment,
                        held_seconds=now - request.arrival_seconds,
                        backend_depth=self._backend_depth,
                    )
                )

    # -- outcomes ----------------------------------------------------------

    def _shed(
        self,
        request: ServeRequest,
        rejection: AdmissionRejected,
        now: float,
    ) -> None:
        """Record a typed rejection — the only way out but completion."""
        self._shed_counts[rejection.tenant] += 1
        self.shed.append(
            ShedRecord(request=request, rejection=rejection, seconds=now)
        )
        if self.bus is not None:
            self.bus.publish(
                ServeShed(
                    seconds=now,
                    tenant=rejection.tenant,
                    reason=rejection.kind,
                    segment=rejection.segment,
                    arrival_seconds=rejection.arrival_seconds,
                )
            )

    def _on_backend_complete(
        self, item, completion_seconds: float, drive_index: int
    ) -> None:
        name = getattr(item, "tenant", None)
        if name is None or name not in self._tenants:
            return
        tenant = self._tenants[name]
        self._outstanding[name] -= 1
        self._backend_depth -= 1
        self._completed[name] += 1
        response = completion_seconds - item.arrival_seconds
        self.metrics.histogram(
            f"serve.tenant.{name}.response_seconds"
        ).observe(response)
        if response > tenant.slo_seconds:
            self._violations[name] += 1
        if self.bus is not None:
            self.bus.publish(
                ServeCompleted(
                    seconds=completion_seconds,
                    tenant=name,
                    segment=item.segment,
                    response_seconds=response,
                )
            )
        self._drain(self.kernel.now_seconds)

    def _on_backend_failure(self, item) -> None:
        name = getattr(item, "tenant", None)
        if name is None or name not in self._tenants:
            return
        self._outstanding[name] -= 1
        self._backend_depth -= 1
        self._failed[name] += 1
        self._drain(self.kernel.now_seconds)

    # -- reporting ---------------------------------------------------------

    def report(self) -> ServeReport:
        """The per-tenant statistics of the (finished) run."""
        tenants = []
        for tenant in self.config.tenants:
            name = tenant.name
            histogram = self.metrics.histogram(
                f"serve.tenant.{name}.response_seconds"
            )
            if histogram.count:
                mean = histogram.mean
                p50 = histogram.percentile(50)
                p99 = histogram.percentile(99)
                p999 = histogram.percentile(99.9)
            else:
                mean = p50 = p99 = p999 = None
            tenants.append(
                TenantStats(
                    name=name,
                    weight=tenant.weight,
                    submitted=self._submitted[name],
                    admitted=self._admitted[name],
                    released=self._released[name],
                    completed=self._completed[name],
                    failed=self._failed[name],
                    shed=self._shed_counts[name],
                    mean_seconds=mean,
                    p50_seconds=p50,
                    p99_seconds=p99,
                    p999_seconds=p999,
                    slo_seconds=tenant.slo_seconds,
                    slo_violations=self._violations[name],
                )
            )
        return ServeReport(
            tenants=tuple(tenants),
            submitted=sum(self._submitted.values()),
            completed=sum(self._completed.values()),
            failed=sum(self._failed.values()),
            shed=sum(self._shed_counts.values()),
            degraded=self.system.degraded,
        )
