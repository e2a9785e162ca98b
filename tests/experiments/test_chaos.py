"""The chaos (fault-injection sweep) experiment."""

import pytest

from repro.experiments import chaos
from repro.experiments.config import ExperimentConfig


@pytest.fixture(scope="module")
def sweep():
    return chaos.run(
        ExperimentConfig(),
        fault_rates=(0.0, 0.2),
        rate_per_hour=120.0,
        horizon_hours=0.3,
    )


class TestChaosSweep:
    def test_no_requests_lost_at_any_rate(self, sweep):
        assert sweep.all_complete
        for point in sweep.points:
            assert point.completion_ratio == 1.0
            assert point.failed == 0
            assert point.completed == point.requests > 0

    def test_zero_rate_point_is_fault_free(self, sweep):
        clean = sweep.points[0]
        assert clean.fault_rate == 0.0
        assert clean.faults_injected == 0
        assert clean.retries == 0
        assert clean.requeues == 0

    def test_faulted_point_pays_in_time_not_requests(self, sweep):
        # The cost of faults shows up as retries and injected-fault
        # counts, never as lost requests.  (Mean response time is not
        # asserted to rise: faults shift batch boundaries, which at
        # this scale can move the mean either way.)
        clean, faulted = sweep.points
        assert faulted.faults_injected > 0
        assert faulted.retries > 0
        assert faulted.mean_response_seconds > 0
        assert faulted.completed == clean.completed == clean.requests

    def test_percentiles_ordered(self, sweep):
        for point in sweep.points:
            assert (
                point.p50_response_seconds
                <= point.p90_response_seconds
                <= point.p99_response_seconds
            )

    def test_tabular_protocol(self, sweep):
        headers = sweep.headers()
        rows = sweep.rows()
        assert len(rows) == 2
        assert all(len(row) == len(headers) for row in rows)
        records = sweep.to_dict()
        assert records[1]["fault rate"] == 0.2
        assert records[0]["completion ratio"] == 1.0

    def test_report_prints_table_and_verdict(self, sweep, capsys):
        chaos.report(sweep)
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "completion ratio 1.0" in out

    def test_zero_rate_matches_unhardened_system(self, single_drive):
        from repro.geometry.generator import generate_tape
        from repro.library import label_requests
        from repro.online.batch_queue import BatchPolicy
        from repro.workload.arrivals import PoissonArrivals

        config = ExperimentConfig()
        point = chaos.run_point(
            config, fault_rate=0.0, horizon_hours=0.3
        )
        tape = generate_tape(seed=config.tape_seed)
        plain = single_drive(tape, policy=BatchPolicy(max_batch=32))
        requests = label_requests(
            "tape",
            PoissonArrivals(
                rate_per_hour=120.0,
                total_segments=tape.total_segments,
                seed=config.workload_seed,
            ).batch(0.3 * 3600.0),
        )
        stats = plain.run(requests)
        assert point.completed == stats.count
        assert point.mean_response_seconds == pytest.approx(
            stats.mean_seconds
        )
