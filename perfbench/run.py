"""Host-speed benchmark of the tape-scheduling simulator.

Run from the repository root::

    python3 perfbench/run.py --workload serve-gateway --seed 0 \\
        --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``serve-gateway``, ``figure-sweep``
and ``cached-library``, each run in this one process.  The seed makes
the inputs: the cartridge shelf and, for the online workloads, the
tenant request stream; the sweep draws its trials from it.

``--trace 0`` sets the workload up several times, then repeats it for
``--seconds`` seconds with tracing off and reports the end-to-end
metrics: throughput (work per host second) and set-up time (the
one-off imports plus the median set-up), both at the nominal speed of
the reference task in ``timing.py`` (the raw median rate is printed
too), peak resident memory during the timed run and the simulated
seconds per locate.
``--trace 1`` repeats the workload untraced for half the time, then sets
it up and runs it once under the layer tracer (``tracing.py``) and
reports the per-layer metrics and the tracing overhead against the
median untraced repetition; its spans go to ``.perfbench-out/``.

Every repetition checks its outputs: requests are conserved with no
loss, and the digest of every simulated output is the same in every
repetition, traced or not, and equals the digest recorded in
``digests.json`` for that workload and seed, if one is recorded
(``--record-digest`` records it).  A failed check prints
``"correct": false`` with no metrics and exits with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the provenance and every simulated metric of the run.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = ROOT / ".perfbench-out"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

WORKLOAD_NAMES = ("serve-gateway", "figure-sweep", "cached-library")

#: Units of the simulated metrics a workload reports.
SIM_UNITS = {
    "sim_p50_response_s": "s",
    "sim_p999_response_s": "s",
    "sim_response_samples": "count",
    "sim_samples_beyond_p999": "count",
    "sim_estimate_gap_pct": "%",
    "sim_s_per_locate": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digest",
        action="store_true",
        help="store this run's output digest in digests.json",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(argv, seed: int) -> dict:
    import os

    import numpy

    return {
        "command": [sys.executable, *argv],
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def timed_reps(workload, inputs, seconds: float):
    """Repeat the workload until ``seconds`` have passed (at least once).

    Returns each repetition's outcome and its timed parts.
    """
    from timing import Parts

    outcomes, timings = [], []
    started = time.perf_counter()
    while not outcomes or time.perf_counter() - started < seconds:
        gc.collect()
        parts = Parts()
        outcomes.append(workload.run(inputs, parts))
        timings.append(parts)
    return outcomes, timings


def reset_peak_rss() -> None:
    """Return freed heap to the system and restart the process's
    peak-memory count (Linux with glibc; elsewhere a no-op)."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mib() -> float:
    """Peak resident memory since the last reset, in MiB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


def check_digests(name: str, seed: int, digests: list[str]) -> list[str]:
    """Problems with a run's digests (empty when they all agree)."""
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"outputs differ between repetitions: {digests}")
    recorded = load_digests().get(name, {}).get(str(seed))
    if recorded is not None and digests[0] != recorded:
        problems.append(
            f"output digest {digests[0]} != recorded {recorded} "
            f"for {name} seed {seed}"
        )
    return problems


def record_digest(name: str, seed: int, digest: str) -> None:
    table = load_digests()
    table.setdefault(name, {})[str(seed)] = digest
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def layer_metrics(tracer, outcome, overhead_pct: float, algorithms):
    """The per-layer metrics of one traced set-up plus repetition."""
    from tracing import LAYERS

    calls, layer_self, name_self = tracer.self_times()
    layer = outcome.layer
    requests = layer["requests"]
    schedules = calls["scheduling"]
    events = layer.get("library.events", 0)

    def per(count, base):
        return count / base if base else 0.0

    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (layer_self[name], "s")
    metrics["scheduling.requests_per_call"] = (
        per(tracer.scheduled_requests, schedules), "count"
    )
    for algorithm in algorithms:
        metrics[f"scheduling.{algorithm}.self_s"] = (
            name_self.get(f"scheduling.{algorithm}", 0.0), "s"
        )
    metrics["estimator.calls_per_batch"] = (
        per(calls["estimator"], schedules), "count"
    )
    metrics["drive.locate_calls_per_request"] = (
        per(tracer.count("drive.locate"), requests), "count"
    )
    metrics["library.events"] = (events, "count")
    metrics["library.host_us_per_event"] = (
        per(1e6 * layer_self["library"], events), "us"
    )
    for name, unit in (
        ("library.batches", "count"),
        ("library.exchanges", "count"),
        ("library.drive_utilization", "fraction"),
        ("library.arm_occupancy", "fraction"),
        ("library.mount_wait_s", "s"),
        ("serve.released", "count"),
        ("serve.shed", "count"),
        ("cache.lookups", "count"),
        ("cache.hit_ratio", "fraction"),
        ("resilience.faults_injected", "count"),
    ):
        metrics[name] = (layer.get(name, 0), unit)
    metrics["resilience.retries_per_request"] = (
        per(layer.get("resilience.retries", 0), requests), "count"
    )
    metrics["obs.events_per_request"] = (per(calls["obs"], requests), "count")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no program source under {ROOT / 'src'}; run from a full "
            "checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import timing
    import workloads
    from repro.experiments.runner import DEFAULT_ALGORITHMS

    import_s = time.perf_counter() - started
    import_s *= timing.REFERENCE_SECONDS / timing.reference_seconds()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"provenance": provenance(argv, args.seed)}))
    try:
        if args.trace:
            inputs = workload.setup()
            outcomes, timings = timed_reps(
                workload, inputs, args.seconds / 2
            )
            from tracing import Tracer

            inputs = None
            gc.collect()
            traced_parts = timing.Parts()
            with Tracer() as tracer:
                traced = workload.run(workload.setup(), traced_parts)
            tracer.write(
                OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            )
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                # Drop the previous inputs first, so that peak memory
                # holds one set of them.
                inputs = None
                gc.collect()
                setups.append(timing.Parts())
                with setups[-1].part("setup"):
                    inputs = workload.setup()
            # Peak memory of the timed run, with one set of inputs
            # resident: the repeated set-ups would otherwise add
            # allocator noise of their own.
            reset_peak_rss()
            outcomes, timings = timed_reps(workload, inputs, args.seconds)
    except workloads.CheckFailed as error:
        print(f"output check failed: {error}", file=sys.stderr)
        emit(False, 1, 0, {})
        return 1

    checked = outcomes + [traced] if args.trace else outcomes
    attempted = sum(outcome.attempted for outcome in checked)
    failed = sum(outcome.failed for outcome in checked)
    digests = [outcome.digest for outcome in checked]
    problems = check_digests(args.workload, args.seed, digests)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        emit(False, attempted, failed, {})
        return 1
    if args.record_digest:
        record_digest(args.workload, args.seed, digests[0])

    first = outcomes[0]
    throughput = first.units / timing.normalized_seconds(timings)
    totals = [parts.total_seconds for parts in timings]
    rate_name, rate_unit = (
        ("trials_per_s", "trials/s") if args.workload == "figure-sweep"
        else ("requests_per_s", "req/s")
    )
    simulated = {
        name: {"value": value, "unit": SIM_UNITS[name]}
        for name, value in first.sim.items()
    }
    simulated["error_rate"] = {
        "value": failed / attempted, "unit": "fraction"
    }
    print(
        json.dumps(
            {
                "workload": args.workload,
                "repetitions": len(outcomes),
                "repetition_s": totals,
                rate_name: {"value": throughput, "unit": rate_unit},
                "raw_" + rate_name: {
                    "value": first.units / statistics.median(totals),
                    "unit": rate_unit,
                },
                **simulated,
            }
        )
    )

    if args.trace:
        overhead = 100.0 * (
            traced_parts.total_seconds / statistics.median(totals) - 1.0
        )
        metrics = layer_metrics(tracer, traced, overhead, DEFAULT_ALGORITHMS)
    else:
        metrics = {
            "throughput_per_s": (throughput, "1/s"),
            "setup_s": (import_s + timing.normalized_seconds(setups), "s"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
            "sim_s_per_locate": (first.sim["sim_s_per_locate"], "s"),
        }
    emit(True, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
