"""Online batching: the throughput / response-time trade-off.

The paper's premise is an *online* tertiary store: requests trickle in,
get batched, and each batch is scheduled before execution.  Bigger
batches schedule better (lower cost per I/O) but make early requests
wait.  This example runs a Poisson request stream through a one-drive
:class:`~repro.library.MultiDriveSystem` (the tape preloaded) at
several batching policies and prints the trade-off.

Run with::

    python examples/online_batching.py
"""

from __future__ import annotations

from repro import generate_tape
from repro.library import Cartridge, MultiDriveSystem, label_requests
from repro.online import BatchPolicy
from repro.workload import PoissonArrivals

#: One simulated day of arrivals.
HORIZON_SECONDS = 24 * 3600.0

#: Mean request rate: comfortably above the unscheduled capability
#: (~50/hour) and below the well-scheduled ceiling.
RATE_PER_HOUR = 110.0


def main() -> None:
    tape = generate_tape(seed=5)
    requests = label_requests(
        "tape",
        PoissonArrivals(
            rate_per_hour=RATE_PER_HOUR,
            total_segments=tape.total_segments,
            seed=5,
        ).batch(HORIZON_SECONDS),
    )
    print(f"{len(requests)} requests over {HORIZON_SECONDS / 3600:.0f} h "
          f"({RATE_PER_HOUR:.0f}/hour) against {tape.label}\n")

    print(f"{'batch policy':<24} {'mean resp':>10} {'p95 resp':>10} "
          f"{'busy':>7} {'batches':>8}")
    for max_batch in (16, 48, 96, 192):
        policy = BatchPolicy(max_batch=max_batch, flush_when_idle=True)
        system = MultiDriveSystem(
            [Cartridge("tape", tape)], drives=1, preload=["tape"],
            policy=policy,
        )
        stats = system.run(requests)
        busy = sum(b.execution_seconds for b in system.batches)
        span = max(
            HORIZON_SECONDS,
            max(
                b.start_seconds + b.execution_seconds
                for b in system.batches
            ),
        )
        print(
            f"max_batch={max_batch:<14} "
            f"{stats.mean_seconds / 60:>8.1f} m "
            f"{stats.percentile(95) / 60:>8.1f} m "
            f"{100 * busy / span:>6.1f}% "
            f"{len(system.batches):>8}"
        )

    print(f"""
At {RATE_PER_HOUR:.0f} requests/hour the drive is overloaded without
good scheduling: capping batches at 16 keeps the per-I/O cost near the
small-batch end of Figure 4 and the queue never drains.  Larger batch
caps let LOSS amortize positioning across more requests - the same
drive becomes stable with minutes of response time.  That capacity gain
is the paper's Figures 4/5 result in online form.""")


if __name__ == "__main__":
    main()
