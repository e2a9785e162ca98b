"""Batched ground-truth locates against the scalar path they replace.

``execute_schedule`` hands the drive a schedule's planned hops up front,
and the drive prices all of them with one vectorized ``model.times``
call.  The scalar path it replaces priced each locate with its own
``model.locate_time`` call.  These tests hold the two to bit-identity:

* a plain loop kept here recomputes a fault-free execution from one
  ``locate_time`` call per hop;
* :class:`ScalarDrive` ignores the plan, so every locate takes the
  scalar path, and the same executor runs on it under faults, retries,
  resets and an event bus;
* spy models count the model calls the drive makes.

Every result field, the drive's final state and every published event
must compare ``==``.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.drive import FaultyModel, SimulatedDrive, WearMeter
from repro.drive.physical import ground_truth_model
from repro.exceptions import DriveFault
from repro.geometry import tiny_tape
from repro.library import MediaAgingModel
from repro.model import LinearizedModel, LocateTimeModel
from repro.model.perturb import EvenOddPerturbation, ShortLocateDeviation
from repro.obs import EventBus
from repro.resilience import FaultInjector, FaultPlan, RetryPolicy
from repro.scheduling import (
    ExecutionResult,
    Request,
    Schedule,
    SortScheduler,
    execute_schedule,
    locate_sequence_times,
)

TAPE = tiny_tape(seed=3)
TOTAL = TAPE.total_segments
BASE = LocateTimeModel(TAPE)

#: Every in-tree model class a drive accepts.
MODELS = {
    "LocateTimeModel": BASE,
    "LocateTimeModel(slow profile)": LocateTimeModel(
        TAPE,
        read_seconds_per_section=21.0,
        scan_seconds_per_section=13.5,
    ),
    "ShortLocateDeviation": ShortLocateDeviation(BASE, seed=5),
    "ground truth": ground_truth_model(TAPE, seed=2),
    "aged": MediaAgingModel().aged_model(BASE, "tape", 7),
    "EvenOddPerturbation": EvenOddPerturbation(BASE, 10.0),
    "FaultyModel": FaultyModel(BASE, retry_probability=0.3, seed=4),
    "FaultyModel(ground truth)": FaultyModel(
        ground_truth_model(TAPE, seed=1), retry_probability=0.2
    ),
    "LinearizedModel": LinearizedModel(BASE),
}


class ScalarDrive(SimulatedDrive):
    """The drive before batching: it ignores the plan, so every locate
    prices itself with one scalar ``model.locate_time`` call."""

    def plan_locates(self, sources, segments) -> None:
        pass


@st.composite
def schedules(draw):
    """Random schedules: duplicates, requests that end at the last
    segment (their out-position clamps), empty, arbitrary origin."""
    pool = draw(
        st.lists(st.integers(0, TOTAL - 1), min_size=1, max_size=4)
    )
    requests = []
    for _ in range(draw(st.integers(0, 12))):
        length = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(("any", "repeat", "last")))
        if kind == "any":
            segment = draw(st.integers(0, TOTAL - 1))
        elif kind == "repeat":
            segment = draw(st.sampled_from(pool))
        else:
            segment = TOTAL - length
        requests.append(Request(min(segment, TOTAL - length), length))
    origin = draw(st.integers(0, TOTAL - 1))
    return Schedule(tuple(requests), origin=origin, algorithm="test")


fault_plans = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        locate_fault_probability=st.floats(0.0, 0.4),
        read_fault_probability=st.floats(0.0, 0.4),
        reset_probability=st.floats(0.0, 0.15),
        seed=st.integers(0, 2**16),
    ),
)
policies = st.one_of(
    st.none(),
    st.builds(
        RetryPolicy,
        max_attempts=st.integers(1, 3),
        request_timeout_seconds=st.sampled_from((math.inf, 90.0)),
    ),
)


def _run(drive_cls, model, schedule, plan, policy, with_bus, estimates):
    """Execute once; return everything observable about the run."""
    bus = EventBus() if with_bus else None
    published = bus.collect() if bus is not None else []
    wear = WearMeter()
    drive = drive_cls(
        model,
        initial_position=schedule.origin,
        record_events=True,
        wear_meter=wear,
        bus=bus,
    )
    target = drive if plan is None else FaultInjector(drive, plan, bus=bus)
    estimated = locate_sequence_times(BASE, schedule) if estimates else None
    try:
        result = execute_schedule(
            target,
            schedule,
            bus=bus,
            estimated_locate_seconds=estimated,
            base_seconds=500.0,
            policy=policy,
        )
        raised = None
    except DriveFault as fault:
        result = None
        raised = (type(fault), str(fault), fault.penalty_seconds)
    return {
        "result": result,
        "raised": raised,
        "position": target.position,
        "clock_seconds": target.clock_seconds,
        "drive_events": drive.events,
        "published": published,
        "travel_sections": wear.travel_sections,
        "faults": None if plan is None else dict(target.fault_counts),
    }


def _assert_same_result(batched: ExecutionResult, scalar: ExecutionResult):
    for field in dataclasses.fields(ExecutionResult):
        got = getattr(batched, field.name)
        want = getattr(scalar, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert np.array_equal(got, want, equal_nan=True), field.name
        else:
            assert got == want, field.name


def _scalar_reference(model, schedule):
    """The executor's arithmetic, one ``locate_time`` call per hop."""
    transfer = model.segment_transfer_seconds
    position, clock = schedule.origin, 0.0
    locate_total = transfer_total = 0.0
    completions = []
    for request in schedule:
        seconds = model.locate_time(position, request.segment)
        locate_total += seconds
        clock += seconds
        read = request.length * transfer
        transfer_total += read
        clock += read
        position = min(request.segment + request.length, TOTAL - 1)
        completions.append(clock)
    return position, clock, locate_total, transfer_total, completions


class TestBatchingContract:
    """``times(s, d)[k] == locate_time(s[k], d[k])`` for every model."""

    @settings(max_examples=60, deadline=None)
    @given(
        model_name=st.sampled_from(sorted(MODELS)),
        hops=st.lists(
            st.tuples(st.integers(0, TOTAL - 1), st.integers(0, TOTAL - 1)),
            min_size=1,
            max_size=20,
        ),
    )
    def test_vector_call_equals_scalar_calls(self, model_name, hops):
        model = MODELS[model_name]
        sources, destinations = (np.asarray(x) for x in zip(*hops))
        batched = model.times(sources, destinations).tolist()
        scalar = [model.locate_time(s, d) for s, d in hops]
        assert batched == scalar


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        model_name=st.sampled_from(sorted(MODELS)),
        schedule=schedules(),
        plan=fault_plans,
        policy=policies,
        with_bus=st.booleans(),
        estimates=st.booleans(),
    )
    def test_batched_run_equals_scalar_run(
        self, model_name, schedule, plan, policy, with_bus, estimates
    ):
        model = MODELS[model_name]
        args = (model, schedule, plan, policy, with_bus, estimates)
        batched = _run(SimulatedDrive, *args)
        scalar = _run(ScalarDrive, *args)
        assert (batched["result"] is None) == (scalar["result"] is None)
        if scalar["result"] is not None:
            _assert_same_result(batched["result"], scalar["result"])
        for key in scalar:
            if key != "result":
                assert batched[key] == scalar[key], key

    @settings(max_examples=60, deadline=None)
    @given(
        model_name=st.sampled_from(sorted(MODELS)),
        schedule=schedules(),
        hardened=st.booleans(),
    )
    def test_fault_free_run_equals_scalar_loop(
        self, model_name, schedule, hardened
    ):
        model = MODELS[model_name]
        drive = SimulatedDrive(model, initial_position=schedule.origin)
        result = execute_schedule(
            drive, schedule, policy=RetryPolicy() if hardened else None
        )
        position, clock, locates, transfers, completions = (
            _scalar_reference(model, schedule)
        )
        assert drive.position == position
        assert drive.clock_seconds == clock
        assert result.total_seconds == clock
        assert result.locate_seconds == locates
        assert result.transfer_seconds == transfers
        assert result.completion_seconds.tolist() == completions


class CountingModel:
    """Delegating spy that counts the drive's model calls by entry."""

    def __init__(self, model) -> None:
        self._model = model
        self.calls = {
            "locate_time": 0,
            "locate_times": 0,
            "times": 0,
            "pairwise_times": 0,
        }

    def __getattr__(self, name):
        attribute = getattr(self._model, name)
        if name not in self.calls:
            return attribute

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attribute(*args, **kwargs)

        return counted


def _schedule_64(origin=TOTAL // 2):
    batch = np.random.default_rng(64).integers(1, TOTAL - 1, size=64)
    return SortScheduler().schedule(BASE, origin, batch.tolist())


class TestScalarPathIsGone:
    def test_plain_path_prices_the_schedule_in_one_call(self):
        spy = CountingModel(BASE)
        schedule = _schedule_64()
        execute_schedule(
            SimulatedDrive(spy, initial_position=schedule.origin), schedule
        )
        assert spy.calls == {
            "locate_time": 0, "locate_times": 0, "times": 1,
            "pairwise_times": 0,
        }

    def test_hardened_path_prices_the_schedule_in_one_call(self):
        spy = CountingModel(BASE)
        schedule = _schedule_64()
        drive = FaultInjector(
            SimulatedDrive(spy, initial_position=schedule.origin),
            FaultPlan(),
        )
        result = execute_schedule(drive, schedule, policy=RetryPolicy())
        assert result.all_succeeded
        assert spy.calls == {
            "locate_time": 0, "locate_times": 0, "times": 1,
            "pairwise_times": 0,
        }

    def test_relocate_after_a_reset_is_the_one_scalar_call(self):
        spy = CountingModel(BASE)
        schedule = _schedule_64()
        drive = FaultInjector(
            SimulatedDrive(spy, initial_position=schedule.origin),
            FaultPlan(reset_probability=0.01, seed=2),
        )
        result = execute_schedule(drive, schedule, policy=RetryPolicy())
        # Exactly one forced reset, away from the first request, so the
        # re-locate from BOT is the one hop the plan does not cover.
        assert drive.fault_counts == {"locate": 0, "read": 0, "reset": 1}
        assert result.all_succeeded
        assert result.attempts.tolist().index(2) > 0
        assert spy.calls == {
            "locate_time": 1, "locate_times": 0, "times": 1,
            "pairwise_times": 0,
        }
