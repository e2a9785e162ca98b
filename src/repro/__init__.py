"""repro — Random I/O scheduling for serpentine tertiary storage.

A from-scratch reproduction of Hillyer & Silberschatz, *Random I/O
Scheduling in Online Tertiary Storage Systems* (SIGMOD 1996): the
DLT4000 locate-time model, the eight batch schedulers (READ, FIFO, OPT,
SORT, SLTF, SCAN, WEAVE, LOSS), a simulated drive and robotic library,
and the full experiment harness that regenerates every figure and table
of the paper's evaluation.

Quickstart::

    from repro import (
        generate_tape, LocateTimeModel, LossScheduler,
        SimulatedDrive, execute_schedule,
    )

    tape = generate_tape(seed=7)
    model = LocateTimeModel(tape)
    batch = [123_456, 42, 599_999, 310_000]
    schedule = LossScheduler().schedule(model, origin=0, requests=batch)
    drive = SimulatedDrive(model)
    result = execute_schedule(drive, schedule)
    print(schedule.algorithm, result.total_seconds)

The package re-exports the :mod:`repro.api` facade, which alone decides
what is public; ``from repro import api`` names it explicitly.
"""

from repro import api
from repro.api import *  # noqa: F403  (the facade is the public surface)

__all__ = [*api.__all__, "api"]
