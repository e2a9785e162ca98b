"""Gateway behavior: admission, shedding, backpressure, accounting.

The load-shedding invariant — **nothing is dropped silently** — is
property-checked: whatever the caps, deadlines, and workload, every
submitted request ends as a completion, a typed failure, or a typed
shed record, and the ledger adds up exactly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import (
    DeadlineExpired,
    SegmentOutOfRange,
    ServeError,
    TenantOverloaded,
    UnknownTenant,
)
from repro.geometry import tiny_tape
from repro.library import MultiDriveSystem
from repro.library.cartridge import Cartridge
from repro.obs import EventBus
from repro.serve import (
    Gateway,
    ServeConfig,
    ServeRequest,
    TenantConfig,
)


def small_shelf(count=2):
    return [
        Cartridge(f"tape-{index}", tiny_tape(seed=index + 1))
        for index in range(count)
    ]


def make_gateway(tenants, shelf=None, drives=2, **config_kwargs):
    system = MultiDriveSystem(shelf or small_shelf(), drives=drives)
    return Gateway(
        ServeConfig(tenants=tenants, **config_kwargs), system=system
    )


def burst(tenant, count, label="tape-0", spacing=1.0, start=0.0):
    return [
        ServeRequest(
            arrival_seconds=start + index * spacing,
            label=label,
            segment=(index * 17) % 200,
            tenant=tenant,
        )
        for index in range(count)
    ]


class TestValidation:
    def test_unknown_tenant_rejected_upfront(self):
        gateway = make_gateway((TenantConfig(name="a"),))
        with pytest.raises(UnknownTenant):
            gateway.run(burst("nobody", 1))

    def test_unknown_label_rejected_upfront(self):
        gateway = make_gateway((TenantConfig(name="a"),))
        with pytest.raises(ServeError):
            gateway.run(burst("a", 1, label="tape-99"))

    def test_read_past_its_tape_rejected_upfront(self):
        # The backend's own check runs for every request before any
        # event does; the ServeError chains the library's typed error.
        shelf = small_shelf()
        gateway = make_gateway((TenantConfig(name="a"),), shelf=shelf)
        total = shelf[0].geometry.total_segments
        past_end = burst("a", 1, label="tape-0", start=100.0)[0]
        past_end = ServeRequest(
            arrival_seconds=past_end.arrival_seconds,
            label="tape-0",
            segment=total - 1,
            length=2,
            tenant="a",
        )
        with pytest.raises(ServeError) as raised:
            gateway.run(burst("a", 3) + [past_end])
        assert isinstance(raised.value.__cause__, SegmentOutOfRange)
        assert gateway.kernel.events_dispatched == 0
        assert gateway.system.submitted == 0

    def test_single_use(self):
        gateway = make_gateway((TenantConfig(name="a"),))
        gateway.run(burst("a", 3))
        with pytest.raises(ServeError):
            gateway.run(burst("a", 1))


class TestOutcomes:
    def test_all_complete_uncapped(self):
        gateway = make_gateway(
            (TenantConfig(name="a"), TenantConfig(name="b", weight=2.0))
        )
        report = gateway.run(burst("a", 20) + burst("b", 20))
        assert report.submitted == 40
        assert report.completed == 40
        assert report.shed == 0
        assert report.lost == 0
        assert report.all_accounted

    def test_overload_shed_is_typed(self):
        gateway = make_gateway(
            (TenantConfig(name="a", max_outstanding=5),)
        )
        # A same-instant burst: only 5 can be outstanding.
        requests = burst("a", 30, spacing=0.0)
        report = gateway.run(requests)
        stats = report.tenants[0]
        assert stats.shed == 25
        assert stats.completed == 5
        assert report.lost == 0
        assert len(gateway.shed) == 25
        for record in gateway.shed:
            assert isinstance(record.rejection, TenantOverloaded)
            assert record.rejection.kind == "overload"
            assert record.rejection.tenant == "a"

    def test_deadline_shed_is_typed(self):
        # One backend slot: queued requests age past their deadline.
        gateway = make_gateway(
            (TenantConfig(name="a", deadline_seconds=10.0),),
            drives=1,
            max_backend_depth=1,
        )
        report = gateway.run(burst("a", 12, spacing=0.0))
        stats = report.tenants[0]
        assert stats.shed > 0
        assert stats.completed + stats.failed + stats.shed == 12
        assert report.lost == 0
        assert all(
            isinstance(r.rejection, DeadlineExpired)
            for r in gateway.shed
        )

    def test_backpressure_bounds_backend_depth(self):
        depths = []
        gateway = make_gateway(
            (TenantConfig(name="a"),), max_backend_depth=3
        )
        original = gateway.system.submit

        def tracking_submit(request):
            index = original(request)
            depths.append(gateway._backend_depth)
            return index

        gateway.system.submit = tracking_submit
        report = gateway.run(burst("a", 40, spacing=0.0))
        assert report.completed == 40
        assert depths and max(depths) <= 3

    def test_weighted_release_order(self):
        """With one backend slot, releases follow the fair share."""
        released = []
        gateway = make_gateway(
            (
                TenantConfig(name="heavy", weight=2.0),
                TenantConfig(name="light", weight=1.0),
            ),
            max_backend_depth=1,
        )
        original = gateway.system.submit

        def tracking_submit(request):
            released.append(request.tenant)
            return original(request)

        gateway.system.submit = tracking_submit
        report = gateway.run(
            burst("heavy", 12, spacing=0.0)
            + burst("light", 12, spacing=0.0)
        )
        assert report.lost == 0
        head = released[:9]
        assert head.count("heavy") == 6
        assert head.count("light") == 3


class TestObservability:
    def test_serve_events_on_bus(self):
        bus = EventBus()
        kinds = []
        bus.subscribe(lambda e: kinds.append(e.name))
        system = MultiDriveSystem(small_shelf(), drives=1, bus=bus)
        gateway = Gateway(
            ServeConfig(
                tenants=(TenantConfig(name="a", max_outstanding=2),)
            ),
            system=system,
        )
        gateway.run(burst("a", 10, spacing=0.0))
        assert "serve.admit" in kinds
        assert "serve.release" in kinds
        assert "serve.complete" in kinds
        assert "serve.shed" in kinds

    def test_report_percentiles_none_without_completions(self):
        gateway = make_gateway(
            (TenantConfig(name="a"), TenantConfig(name="b"))
        )
        report = gateway.run(burst("a", 5))
        by_name = {t.name: t for t in report.tenants}
        assert by_name["b"].p999_seconds is None
        assert by_name["b"].slo_ok  # vacuously
        assert by_name["a"].p999_seconds is not None


class TestNeverSilent:
    @given(
        count_a=st.integers(0, 25),
        count_b=st.integers(0, 25),
        cap=st.one_of(st.none(), st.integers(1, 10)),
        deadline=st.sampled_from([5.0, 50.0, float("inf")]),
        depth=st.one_of(st.none(), st.integers(1, 4)),
        spacing=st.sampled_from([0.0, 2.0, 30.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_request_accounted(
        self, count_a, count_b, cap, deadline, depth, spacing
    ):
        """submitted == completed + failed + shed, for any config."""
        gateway = make_gateway(
            (
                TenantConfig(
                    name="a",
                    weight=3.0,
                    max_outstanding=cap,
                    deadline_seconds=deadline,
                ),
                TenantConfig(name="b"),
            ),
            max_backend_depth=depth,
        )
        report = gateway.run(
            burst("a", count_a, spacing=spacing)
            + burst("b", count_b, label="tape-1", spacing=spacing)
        )
        assert report.submitted == count_a + count_b
        assert report.lost == 0
        assert len(gateway.shed) == report.shed
        for tenant in report.tenants:
            assert (
                tenant.submitted
                == tenant.completed + tenant.failed + tenant.shed
            )
