"""Planning an operating batch size from the Figure 4 data.

An online tertiary store has one real knob: how many requests to
accumulate before scheduling a batch.  This example measures the LOSS
per-request curve (a small Figure 4 run), then uses the batching
planner to answer two operator questions for several arrival rates:

1. what is the *smallest* batch size that keeps up (stability)?
2. what batch size minimizes the expected response time?

It then validates the recommendation by simulating the online system
at the recommended and at a naive batch size.

Run with::

    python examples/batch_size_planning.py
"""

from __future__ import annotations

from repro.analysis import (
    PerLocateCurve,
    min_stable_batch,
    recommend_batch,
)
from repro.experiments import ExperimentConfig, run_per_locate
from repro.geometry import generate_tape
from repro.library import Cartridge, MultiDriveSystem, label_requests
from repro.online import BatchPolicy
from repro.workload import PoissonArrivals

RATES = (30.0, 80.0, 150.0, 250.0)


def main() -> None:
    print("measuring the LOSS per-request curve (small Figure 4 run)…")
    result = run_per_locate(
        ExperimentConfig(
            lengths=(1, 4, 16, 64, 192, 512), scale="quick"
        ),
        origin_at_start=False,
        algorithms=("LOSS",),
    )
    curve = PerLocateCurve.from_per_locate_result(result, "LOSS")
    for length in curve.lengths:
        print(f"  batch {length:>4}: {curve.at(length):5.1f} s/request "
              f"(ceiling {curve.capacity_per_hour(length):5.0f}/h)")

    print(f"\n{'rate/h':>8} {'min stable batch':>17} "
          f"{'recommended':>12} {'est. response':>14}")
    for rate in RATES:
        floor = min_stable_batch(curve, rate)
        pick = recommend_batch(curve, rate)
        if pick is None:
            print(f"{rate:>8.0f} {'-':>17} {'overloaded':>12}")
            continue
        batch, estimate = pick
        print(f"{rate:>8.0f} {floor!s:>17} {batch:>12} "
              f"{estimate / 60:>11.1f} m")

    # Validate the 150/hour recommendation against the simulator.
    rate = 150.0
    batch, _ = recommend_batch(curve, rate)
    tape = generate_tape(seed=8)
    requests = label_requests(
        "tape",
        PoissonArrivals(
            rate_per_hour=rate, total_segments=tape.total_segments, seed=8
        ).batch(12 * 3600.0),
    )
    print(f"\nsimulating {rate:.0f}/hour for 12 h:")
    for max_batch in (8, batch):
        system = MultiDriveSystem(
            [Cartridge("tape", tape)], drives=1, preload=["tape"],
            policy=BatchPolicy(max_batch=max_batch),
        )
        stats = system.run(requests)
        label = "recommended" if max_batch == batch else "naive"
        print(f"  max_batch={max_batch:<4} ({label:<11}) "
              f"mean response {stats.mean_seconds / 60:6.1f} m, "
              f"p95 {stats.percentile(95) / 60:6.1f} m")


if __name__ == "__main__":
    main()
