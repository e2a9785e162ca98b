"""Trace recording and replay."""

import pytest

from repro.workload import (
    PoissonArrivals,
    TimedRequest,
    load_trace,
    save_trace,
    trace_from_batch,
)


class TestRoundTrip:
    def test_save_and_load(self, tmp_path):
        original = [
            TimedRequest(0.0, 10),
            TimedRequest(2.5, 99, length=4),
            TimedRequest(7.0, 3),
        ]
        path = save_trace(original, tmp_path / "trace.jsonl")
        assert load_trace(path) == original

    def test_poisson_stream_round_trips(self, tmp_path):
        stream = PoissonArrivals(100.0, 5000, seed=2).batch(3600.0)
        path = save_trace(stream, tmp_path / "poisson.jsonl")
        assert load_trace(path) == stream

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"t": 0.0, "segment": 5}\n\n{"t": 1.0, "segment": 6}\n'
        )
        assert len(load_trace(path)) == 2

    def test_default_length(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 0.0, "segment": 5}\n')
        assert load_trace(path)[0].length == 1


class TestValidation:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="malformed"):
            load_trace(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1.0}\n')
        with pytest.raises(ValueError, match="malformed"):
            load_trace(path)

    def test_time_travel(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"t": 5.0, "segment": 1}\n{"t": 1.0, "segment": 2}\n'
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            load_trace(path)

    def test_negative_time(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": -1.0, "segment": 1}\n')
        with pytest.raises(ValueError, match="negative"):
            load_trace(path)

    def test_bad_length(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 0.0, "segment": 1, "length": 0}\n')
        with pytest.raises(ValueError):
            load_trace(path)


class TestBatchConversion:
    def test_wraps_batch(self):
        trace = trace_from_batch([5, 9, 2], arrival_seconds=3.0)
        assert [r.segment for r in trace] == [5, 9, 2]
        assert all(r.arrival_seconds == 3.0 for r in trace)

    def test_replay_through_online_system(self, tmp_path, single_drive):
        from repro.geometry import tiny_tape
        from repro.library import label_requests

        trace = trace_from_batch([5, 60, 120])
        path = save_trace(trace, tmp_path / "batch.jsonl")
        system = single_drive(tiny_tape(seed=2))
        stats = system.run(label_requests("tape", load_trace(path)))
        assert stats.count == 3
