"""Striped tape arrays: parallelism on top of scheduling.

The paper's related work cites striped tape organizations [DK93,
GMW95] as the other lever on tape performance.  This example stripes a
logical volume across 1, 2, 4, and 8 drives of the multi-drive
library and services one random batch on each configuration, showing

* the makespan drop from parallel drives, and
* the *diminishing return*: each drive sees a smaller sub-batch, and
  smaller batches schedule worse (the Figure 4 effect), so K drives
  buy less than a K-fold speedup.

Run with::

    python examples/striped_array.py
"""

from __future__ import annotations

import numpy as np

from repro import generate_tape
from repro.library import Cartridge, MultiDriveSystem
from repro.online import BatchPolicy, StripedReadCoordinator, striped_volume

BATCH_SIZE = 256
SEED = 3


def main() -> None:
    tapes = [
        generate_tape(seed=SEED * 10 + i, total_segments=155_514)
        for i in range(8)
    ]
    rng = np.random.default_rng(SEED)

    print(f"servicing {BATCH_SIZE} random reads on striped arrays\n")
    print(f"{'drives':>6} {'makespan':>10} {'speedup':>8} "
          f"{'parallel eff.':>14} {'per-drive batch':>16}")

    baseline = None
    for drives in (1, 2, 4, 8):
        shelf = [Cartridge(f"vol{i}", tapes[i]) for i in range(drives)]
        # One drive per cartridge, each tape already loaded; a batch
        # cap of the whole batch keeps every drive's share in one
        # scheduled sub-batch.
        system = MultiDriveSystem(
            shelf,
            drives=drives,
            preload=[c.label for c in shelf],
            policy=BatchPolicy(max_batch=BATCH_SIZE),
        )
        volume = striped_volume(shelf, stripe_unit=1)
        coordinator = StripedReadCoordinator(system, volume)
        batch = rng.choice(
            volume.logical_total, BATCH_SIZE, replace=False
        )
        system.begin()
        for logical in batch:
            coordinator.submit(0.0, int(logical))
        system.finish()
        makespan = coordinator.stats.max_seconds
        busy = sum(bay.busy_seconds for bay in system.bays)
        efficiency = busy / (drives * makespan)
        if baseline is None:
            baseline = makespan
        speedup = baseline / makespan
        mean_batch = BATCH_SIZE / drives
        print(
            f"{drives:>6} {makespan:>8.0f} s "
            f"{speedup:>7.2f}x {efficiency:>13.0%} "
            f"{mean_batch:>15.0f}"
        )

    print("""
Speedup lags the drive count: splitting the batch K ways leaves each
drive with a smaller batch, and the per-request positioning cost rises
as batches shrink (Figure 4).  Scheduling and striping are complements,
not substitutes.""")


if __name__ == "__main__":
    main()
