"""Property-based tests: telemetry span accounting and round-trips."""

from hypothesis import given, settings, strategies as st

from repro.geometry import tiny_tape
from repro.obs import (
    EventBus,
    TraceRecorder,
    event_from_record,
    response_stats_from_events,
)
from repro.library import label_requests
from repro.online import BatchPolicy
from repro.workload import TimedRequest

TAPE = tiny_tape(seed=11)


def run_instrumented(single_drive, segments, max_batch):
    bus = EventBus()
    recorder = TraceRecorder(bus)
    system = single_drive(
        TAPE, bus=bus, policy=BatchPolicy(max_batch=max_batch)
    )
    requests = label_requests(
        "tape",
        [
            TimedRequest(float(i) * 5.0, segment)
            for i, segment in enumerate(segments)
        ],
    )
    stats = system.run(requests)
    return system, stats, recorder


@given(
    segments=st.lists(
        st.integers(min_value=0, max_value=TAPE.total_segments - 1),
        min_size=1,
        max_size=24,
    ),
    max_batch=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_span_phases_sum_to_batch_execution(
    single_drive, segments, max_batch
):
    """For any workload, each batch's per-phase durations partition
    its measured execution seconds (the tentpole invariant)."""
    system, _, recorder = run_instrumented(
        single_drive, segments, max_batch
    )
    spans = recorder.batch_spans()
    assert len(spans) == len(system.batches)
    for span, record in zip(spans, system.batches):
        assert abs(span.phase_seconds - span.total_seconds) <= 1e-6
        assert abs(
            span.total_seconds - record.execution_seconds
        ) <= 1e-12
        assert span.locate_seconds >= 0.0
        assert span.transfer_seconds >= 0.0
        assert span.rewind_seconds >= 0.0


@given(
    segments=st.lists(
        st.integers(min_value=0, max_value=TAPE.total_segments - 1),
        min_size=1,
        max_size=16,
    ),
    max_batch=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_stream_rebuilds_stats_and_round_trips(
    single_drive, segments, max_batch
):
    """The event stream is the source of truth: it reproduces the
    system's ResponseStats exactly and survives the record round-trip."""
    _, stats, recorder = run_instrumented(
        single_drive, segments, max_batch
    )
    rebuilt = response_stats_from_events(recorder.events)
    assert rebuilt.samples == stats.samples
    for event in recorder.events:
        assert event_from_record(event.to_record()) == event
