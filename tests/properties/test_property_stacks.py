"""Property: every supported serving stack conserves every request.

The four stacks — library, cache over library, striped coordinator
over library, striped coordinator over cache over library — each run
bare and under a :class:`~repro.serve.Gateway`, with injected faults
off and on.  On *every* tier of the stack, after the run:

* ``submitted == completed + failed`` and ``lost == 0`` (under the
  gateway, its report adds ``shed``);
* every object a tier accepted got exactly one outcome, by identity —
  at the top, exactly the caller's own request objects;
* no request completes before it arrived.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CachedLibrarySystem, SegmentCache
from repro.geometry import tiny_tape
from repro.library import Cartridge, LibraryRequest, MultiDriveSystem
from repro.online import (
    BatchPolicy,
    StripedReadCoordinator,
    striped_volume,
)
from repro.resilience import FaultPlan
from repro.resilience.policy import ResilienceConfig, RetryPolicy
from repro.serve import Gateway, ServeConfig, ServeRequest, TenantConfig

STACKS = (
    "library",
    "cache/library",
    "striped/library",
    "striped/cache/library",
)
TENANTS = ("a", "b")


class Outcomes:
    """Every outcome one tier reported, keyed by object identity."""

    def __init__(self, tier) -> None:
        self.tier = tier
        self.counts: Counter[int] = Counter()
        #: Keeps each object alive, so no two outcomes share an id.
        self.objects: dict[int, object] = {}
        tier.completion_listeners.append(self._completed)
        tier.failure_listeners.append(self._failed)

    def _completed(self, item, completion_seconds, drive) -> None:
        assert completion_seconds >= item.arrival_seconds
        self._record(item)

    def _failed(self, item) -> None:
        self._record(item)

    def _record(self, item) -> None:
        self.counts[id(item)] += 1
        self.objects[id(item)] = item

    def check(self) -> None:
        tier = self.tier
        assert tier.lost == 0
        assert tier.submitted == tier.completed + len(tier.failed)
        assert set(self.counts.values()) <= {1}
        assert len(self.counts) == tier.submitted


def build(stack: str, faults: bool, seed: int):
    """The stack's tiers, bottom first."""
    tapes = [
        Cartridge(f"vol{i}", tiny_tape(seed=i + 1)) for i in range(3)
    ]
    library = MultiDriveSystem(
        tapes,
        drives=2,
        policy=BatchPolicy(max_batch=6),
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, seed=seed),
            max_requeues=0,
        ),
        fault_plan=(
            FaultPlan(
                locate_fault_probability=0.3,
                read_fault_probability=0.3,
                seed=seed,
            )
            if faults
            else None
        ),
    )
    tiers = [library]
    if "cache" in stack:
        tiers.append(
            CachedLibrarySystem(system=library, cache=SegmentCache(24))
        )
    if stack.startswith("striped"):
        volume = striped_volume(tapes, stripe_unit=3, replicas=2)
        tiers.append(StripedReadCoordinator(tiers[-1], volume))
    return tiers


def extent(top, label: str) -> int:
    """Segments a request to ``label`` may address on the top tier."""
    if isinstance(top, StripedReadCoordinator):
        return top.volume.logical_total
    library = top if isinstance(top, MultiDriveSystem) else top.system
    return library.cartridge(label).geometry.total_segments


draws = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 5.0, 60.0, 400.0]),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=24,
)


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("gateway", [False, True], ids=["bare", "gateway"])
@pytest.mark.parametrize("stack", STACKS)
@given(draws=draws, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=12, deadline=None)
def test_every_tier_conserves_requests(stack, gateway, faults, draws, seed):
    tiers = build(stack, faults, seed)
    top = tiers[-1]
    labels = top.labels()
    requests = []
    clock = 0.0
    for index, (gap, pick, length) in enumerate(draws):
        clock += gap
        label = labels[pick % len(labels)]
        segment = pick % (extent(top, label) - length + 1)
        if gateway:
            requests.append(
                ServeRequest(
                    clock, label, segment, length=length,
                    tenant=TENANTS[index % len(TENANTS)],
                )
            )
        else:
            requests.append(
                LibraryRequest(clock, label, segment, length=length)
            )
    if gateway:
        front = Gateway(
            ServeConfig(
                tenants=(
                    TenantConfig(name="a", max_outstanding=2),
                    TenantConfig(name="b", deadline_seconds=5.0),
                ),
                max_backend_depth=2,
            ),
            system=top,
        )
    outcomes = [Outcomes(tier) for tier in tiers]

    if gateway:
        report = front.run(requests)
        assert report.lost == 0
        assert report.submitted == len(requests)
        assert (
            report.completed + report.failed + report.shed
            == len(requests)
        )
        assert top.submitted == report.completed + report.failed
        shed = {id(record.request) for record in front.shed}
    else:
        top.run(requests)
        shed = set()

    for tier_outcomes in outcomes:
        tier_outcomes.check()
    # The top tier reports the caller's own objects, and together with
    # the gateway's shed ledger, each exactly once.
    served = set(outcomes[-1].counts)
    assert not served & shed
    assert served | shed == {id(request) for request in requests}
