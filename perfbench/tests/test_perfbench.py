"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.geometry.generator import generate_tape  # noqa: E402
from repro.workload.seed_stream import trial_workload  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A seed with no recorded digest, for the shrunken workloads.
TINY_SEED = 5


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep spans out of the checkout."""
    monkeypatch.setattr(workloads, "ONLINE_HORIZON_HOURS", 0.5)
    monkeypatch.setattr(workloads, "SWEEP_MAX_LENGTH", 4)
    monkeypatch.setattr(workloads.CachedLibrary, "cartridges", 4)
    monkeypatch.setattr(run, "OUT", tmp_path)


def _result(capsys, argv) -> tuple[int, dict]:
    status = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1])


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize(
    "trace, kind", [(0, "end_to_end"), (1, "per_layer")]
)
def test_workload_emits_every_metric(tiny, capsys, workload, trace, kind):
    status, result = _result(
        capsys,
        ["--workload", workload, "--seed", str(TINY_SEED),
         "--seconds", "0.01", "--trace", str(trace)],
    )
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    emitted = {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert emitted == _declared(kind)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_workload_names_match_declaration():
    names = [workload["name"] for workload in DECLARED["workloads"]]
    assert sorted(names) == sorted(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


def test_digest_mismatch_fails_the_run(tiny, capsys, monkeypatch):
    monkeypatch.setattr(
        run,
        "load_digests",
        lambda: {"serve-gateway": {str(TINY_SEED): "0" * 64}},
    )
    status, result = _result(
        capsys,
        ["--workload", "serve-gateway", "--seed", str(TINY_SEED),
         "--seconds", "0.01"],
    )
    assert status == 1
    assert result["correct"] is False
    assert result["metrics"] == {}


def test_traced_run_restores_every_attribute(tiny):
    points = tracing.entry_points()
    before = [vars(owner)[attribute] for owner, attribute, _ in points]
    workload = workloads.ServeGateway(TINY_SEED)
    untraced = workload.run(workload.setup(), timing.Parts())
    with tracing.Tracer() as tracer:
        during = [vars(owner)[attribute] for owner, attribute, _ in points]
        traced = workload.run(workload.setup(), timing.Parts())
    after = [vars(owner)[attribute] for owner, attribute, _ in points]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
    assert traced.digest == untraced.digest
    calls, _, _ = tracer.self_times()
    assert calls["scheduling"] > 0 and calls["library"] > 0
    assert calls["cache"] == calls["resilience"] == calls["obs"] == 0


def test_tracer_restores_after_an_error():
    points = tracing.entry_points()
    before = [vars(owner)[attribute] for owner, attribute, _ in points]
    with pytest.raises(RuntimeError), tracing.Tracer():
        raise RuntimeError("boom")
    after = [vars(owner)[attribute] for owner, attribute, _ in points]
    assert all(a is b for a, b in zip(after, before))


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans.extend(
        [
            ("library", "library.step", 0.0, 10.0, -1),
            ("scheduling", "scheduling.LOSS", 1.0, 4.0, 0),
            ("model", "model.times", 2.0, 3.0, 1),
        ]
    )
    calls, layer_self, name_self = tracer.self_times()
    assert calls == {"library": 1, "scheduling": 1, "model": 1}
    assert layer_self == pytest.approx(
        {"library": 7.0, "scheduling": 2.0, "model": 1.0}
    )
    assert name_self["scheduling.LOSS"] == pytest.approx(2.0)


def _layout(geometry) -> list[float]:
    """Physical positions of a sample of a tape's segments."""
    return geometry.phys_of(np.arange(0, geometry.total_segments, 997)).tolist()


def test_seed_changes_the_generated_inputs(tiny):
    def online(seed):
        shelf, stream = workloads.ServeGateway(seed).setup()
        return (
            [_layout(cartridge.geometry) for cartridge in shelf],
            [(r.arrival_seconds, r.label, r.segment) for r in stream],
        )

    def sweep(seed):
        config = workloads.FigureSweep(seed).setup()
        tape = generate_tape(seed=config.tape_seed)
        trial = trial_workload(tape.total_segments, config.workload_seed, 4, 0)
        origin, batch = trial.sample_batch_with_origin(4, False)
        return _layout(tape), origin, batch.tolist()

    for inputs in (online, sweep):
        assert inputs(1) == inputs(1)
        first, second = inputs(1), inputs(2)
        assert all(a != b for a, b in zip(first, second))


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / BENCH.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, *DECLARED["command"][1:],
         "--workload", "serve-gateway", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
