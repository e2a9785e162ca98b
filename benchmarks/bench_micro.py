"""Micro-benchmarks of the hot substrate paths.

Not figures from the paper — these track the cost of the primitives the
simulation studies hammer: vectorized locate-time evaluation, distance
matrix construction, the LOSS edge-selection kernel, and
single-schedule generation per algorithm.
"""

import numpy as np
import pytest

from repro.geometry import generate_tape
from repro.model import LocateTimeModel, schedule_distance_matrix
from repro.scheduling import get_scheduler, loss_path_fragments
from repro.workload import UniformWorkload, trial_state, trial_workload

#: Entry-point seed for the benchmark's own segment sampling.
SAMPLE_SEED = 0


@pytest.fixture(scope="module")
def setup():
    tape = generate_tape(seed=1)
    return tape, LocateTimeModel(tape)


def test_vectorized_locate_sweep(benchmark, setup):
    tape, model = setup
    destinations = np.arange(tape.total_segments)
    times = benchmark(model.locate_times, 0, destinations)
    assert times.shape == (tape.total_segments,)


def test_distance_matrix_256(benchmark, setup):
    tape, model = setup
    rng = np.random.default_rng(SAMPLE_SEED)
    segments = rng.choice(tape.total_segments, 256, replace=False)
    matrix = benchmark(schedule_distance_matrix, model, 0, segments)
    assert matrix.shape == (257, 256)


def test_trial_state_derivation_1k(benchmark):
    # The per-trial seed hash runs once per (trial, length) cell of a
    # sweep; it must stay negligible next to the scheduling work.
    states = benchmark(
        lambda: [trial_state(0, 16, trial) for trial in range(1_000)]
    )
    assert len(set(states)) == 1_000


def test_trial_workload_batch_16(benchmark, setup):
    tape, _ = setup

    def one_trial():
        workload = trial_workload(tape.total_segments, 0, 16, 7)
        return workload.sample_batch_with_origin(16, False)

    origin, batch = benchmark(one_trial)
    assert len(batch) == 16


@pytest.mark.parametrize("m", [9, 33, 129])
def test_loss_kernel(benchmark, setup, m):
    # LOSS's max-loss edge loop alone, on the square matrix LossScheduler
    # builds for m - 1 request groups: the paper's online batch sizes
    # give m of about 10 to 30 after coalescing.
    tape, model = setup
    rng = np.random.default_rng(SAMPLE_SEED)
    segments = rng.choice(tape.total_segments, m - 1, replace=False)
    square = np.full((m, m), np.inf)
    square[:, 1:] = schedule_distance_matrix(model, 0, segments)
    fragments = benchmark(loss_path_fragments, square)
    assert len(fragments) == 1 and sorted(fragments[0]) == list(range(m))


@pytest.mark.parametrize(
    "name", ["SORT", "SLTF", "SCAN", "WEAVE", "LOSS"]
)
def test_schedule_generation_512(benchmark, setup, name):
    tape, model = setup
    workload = UniformWorkload(total_segments=tape.total_segments,
                               seed=17)
    origin, batch = workload.sample_batch_with_origin(512, False)
    scheduler = get_scheduler(name)
    schedule = benchmark(
        scheduler.schedule, model, origin, batch.tolist()
    )
    assert len(schedule) == 512
