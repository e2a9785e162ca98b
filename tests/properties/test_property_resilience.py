"""Property-based tests: no request is ever silently dropped.

The resilience layer's core contract, checked over randomized fault
rates, seeds, and retry budgets: every admitted request is either a
recorded completion or a surfaced failure — never lost — and the
completion times of the requests that did complete are consistent with
a drive whose clock only moves forward.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.drive import SimulatedDrive
from repro.library import label_requests
from repro.online.batch_queue import BatchPolicy
from repro.resilience import FaultInjector, FaultPlan, RetryPolicy
from repro.scheduling import SortScheduler, execute_schedule
from repro.workload.arrivals import PoissonArrivals


@given(
    fault_rate=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31),
    max_attempts=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_every_request_completes_or_fails(
    tiny, single_drive, fault_rate, seed, max_attempts
):
    from repro.resilience import ResilienceConfig

    system = single_drive(
        tiny,
        policy=BatchPolicy(max_batch=8),
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=max_attempts, seed=seed),
            max_requeues=1,
        ),
        fault_plan=FaultPlan(
            locate_fault_probability=fault_rate, seed=seed
        ),
    )
    requests = label_requests(
        "tape",
        PoissonArrivals(
            rate_per_hour=240.0, total_segments=tiny.total_segments,
            seed=seed % 1000,
        ).batch(600.0),
    )
    stats = system.run(requests)
    # No silent drops: completions + surfaced failures == admissions.
    assert stats.count + len(system.failed) == len(requests)
    # The books also balance per batch.
    assert sum(r.failed for r in system.batches) >= len(system.failed)
    # The queue drained.
    assert system.queue_depth("tape") == 0
    assert system.lost == 0


@given(
    fault_rate=st.floats(min_value=0.0, max_value=0.5),
    read_rate=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**31),
    max_attempts=st.integers(min_value=1, max_value=5),
    batch_seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_executor_accounts_for_every_scheduled_request(
    tiny_model, fault_rate, read_rate, seed, max_attempts, batch_seed
):
    rng = np.random.default_rng(batch_seed)
    batch = rng.choice(
        tiny_model.geometry.total_segments, 10, replace=False
    ).tolist()
    schedule = SortScheduler().schedule(tiny_model, 0, batch)
    drive = FaultInjector(
        SimulatedDrive(tiny_model),
        FaultPlan(
            locate_fault_probability=fault_rate,
            read_fault_probability=read_rate,
            seed=seed,
        ),
    )
    result = execute_schedule(
        drive, schedule,
        policy=RetryPolicy(max_attempts=max_attempts, seed=seed),
    )
    # Every scheduled request is flagged one way or the other.
    assert result.success.shape == (len(schedule),)
    assert result.completed_count + result.failed_count == len(schedule)
    # Completion times exist exactly for the successes...
    assert np.isfinite(
        result.completion_seconds[result.success]
    ).all()
    assert np.isnan(
        result.completion_seconds[~result.success]
    ).all()
    # ...and are strictly increasing in schedule order: the drive's
    # clock only moves forward, and each request completes after the
    # previous one.
    completed = result.completion_seconds[result.success]
    assert (np.diff(completed) > 0).all()
    # Time accounting closes: phases partition the measured total.
    assert result.total_seconds >= 0
    assert np.isclose(
        result.locate_seconds
        + result.transfer_seconds
        + result.fault_seconds,
        result.total_seconds,
    )
    # Attempt counts respect the policy.
    assert (result.attempts >= 1).all()
    assert (result.attempts <= max_attempts).all()


@given(
    fault_rate=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None)
def test_zero_and_nonzero_rates_share_the_clean_floor(
    tiny_model, fault_rate, seed
):
    rng = np.random.default_rng(4242)
    batch = rng.choice(
        tiny_model.geometry.total_segments, 8, replace=False
    ).tolist()
    schedule = SortScheduler().schedule(tiny_model, 0, batch)
    clean = execute_schedule(
        SimulatedDrive(tiny_model), schedule, policy=RetryPolicy()
    )
    faulted = execute_schedule(
        FaultInjector(
            SimulatedDrive(tiny_model),
            FaultPlan(locate_fault_probability=fault_rate, seed=seed),
        ),
        schedule,
        policy=RetryPolicy(seed=seed),
    )
    # With only locate faults the head never moves on a failed attempt,
    # so when every request completes, each completion is the clean
    # time plus non-negative penalty/backoff time.
    if faulted.all_succeeded:
        assert faulted.total_seconds >= clean.total_seconds - 1e-9
        assert (
            faulted.completion_seconds
            >= clean.completion_seconds - 1e-9
        ).all()
    else:
        # A permanently failed request wastes bounded penalty time but
        # skips its locate and read entirely — its successors may even
        # finish earlier than in the clean run.  The invariant that
        # remains: the executor still accounts for everything.
        assert faulted.completed_count + faulted.failed_count == len(
            schedule
        )
