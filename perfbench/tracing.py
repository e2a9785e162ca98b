"""A layer tracer that works from outside the program.

:class:`Tracer` replaces each layer's public entry points with a wrapper
that records one span per call: layer, name, start, end and the index of
the enclosing span.  Nothing under ``src/`` knows about it.  Several
callers bind a function by name at import time (``from x import f``), so
each entry point is wrapped where its caller looks it up, which is why
:data:`ENTRY_POINTS` lists some functions under two modules.

A layer's self time is the duration of its spans minus the time their
direct child spans cover; spans nest strictly because the program is
single-threaded.  Wrapped attributes are restored on exit, and
:meth:`Tracer.restore` checks that each one is the original object again.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import time
import types
from collections import defaultdict
from pathlib import Path

#: The layers, in report order.
LAYERS = (
    "scheduling", "estimator", "executor", "drive", "model", "library",
    "serve", "cache", "resilience", "obs", "workload", "geometry",
)

#: ``(module, class or None, attribute, layer)`` of every wrapped entry
#: point.  Class attributes are wrapped on the class that defines them;
#: ``Scheduler.schedule`` is defined only on the base class (subclasses
#: override ``_order``).  The kernel's ``step`` runs every event handler,
#: so the library layer's self time is the DES kernel, ``MultiDriveSystem``
#: and ``ArmPool`` bookkeeping minus the nested layers.
ENTRY_POINTS = (
    ("repro.scheduling.base", "Scheduler", "schedule", "scheduling"),
    ("repro.scheduling.base", None, "estimate_schedule_seconds",
     "estimator"),
    ("repro.library.system", None, "locate_sequence_times", "estimator"),
    ("repro.library.system", None, "execute_schedule", "executor"),
    ("repro.drive.simulated", "SimulatedDrive", "locate", "drive"),
    ("repro.drive.simulated", "SimulatedDrive", "read", "drive"),
    ("repro.model.locate", "LocateTimeModel", "pairwise_times", "model"),
    ("repro.model.locate", "LocateTimeModel", "times", "model"),
    ("repro.model.locate", "LocateTimeModel", "locate_times", "model"),
    ("repro.library.kernel", "EventKernel", "step", "library"),
    ("repro.serve.gateway", "Gateway", "_on_arrival", "serve"),
    ("repro.serve.gateway", "Gateway", "_on_backend_complete", "serve"),
    ("repro.serve.gateway", "Gateway", "_on_backend_failure", "serve"),
    ("repro.serve.fair", "WeightedFairQueues", "push", "serve"),
    ("repro.serve.fair", "WeightedFairQueues", "pop", "serve"),
    ("repro.cache.library_tier", "CachedLibrarySystem", "_on_lookup",
     "cache"),
    ("repro.cache.store", "SegmentCache", "lookup", "cache"),
    ("repro.cache.store", "SegmentCache", "admit_run", "cache"),
    ("repro.cache.library_tier", None, "opportunistic_prefetch", "cache"),
    ("repro.resilience.injection", "FaultInjector", "locate",
     "resilience"),
    ("repro.resilience.injection", "FaultInjector", "read", "resilience"),
    ("repro.obs.bus", "EventBus", "publish", "obs"),
    ("repro.serve.workload", None, "zipf_serve_stream", "workload"),
    ("repro.experiments.parallel", None, "trial_workload", "workload"),
    ("repro.workload.random_uniform", "UniformWorkload",
     "sample_batch_with_origin", "workload"),
    ("repro.geometry.generator", None, "generate_tape", "geometry"),
    ("repro.experiments.parallel", None, "generate_tape", "geometry"),
    ("repro.model.locate", "LocateTimeModel", "__init__", "geometry"),
)


def _owner(module: str, cls: str | None):
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


def entry_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every entry point."""
    return [
        (_owner(module, cls), attribute, layer)
        for module, cls, attribute, layer in ENTRY_POINTS
    ]


class Tracer:
    """Records spans at the layer boundaries while it is entered.

    ``spans`` holds ``(layer, name, start, end, parent)`` tuples, where
    ``parent`` is the index of the enclosing span or -1.
    ``scheduled_requests`` adds up the requests handed to
    ``Scheduler.schedule``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.scheduled_requests = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for owner, attribute, layer in entry_points():
                self._wrap(owner, attribute, layer)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _wrap(self, owner, attribute: str, layer: str) -> None:
        original = vars(owner)[attribute]
        if not isinstance(original, types.FunctionType):
            raise TypeError(
                f"{owner.__name__}.{attribute} is not a plain function"
            )
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        name = f"{layer}.{attribute}"
        is_schedule = layer == "scheduling"

        def traced(*args, **kwargs):
            if is_schedule:
                # Scheduler.schedule(self, model, origin, requests)
                span_name = f"scheduling.{args[0].name}"
                requests = args[3] if len(args) > 3 else kwargs["requests"]
                self.scheduled_requests += len(requests)
            else:
                span_name = name
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, span_name, start, end, parent)

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every original attribute back and check that it is."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
            if vars(owner)[attribute] is not original:
                raise RuntimeError(
                    f"{owner.__name__}.{attribute} was not restored"
                )

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per-layer call counts and self seconds, and self seconds per
        span name."""
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            _, _, start, end, parent = span
            if parent >= 0:
                child_seconds[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        layer_self: dict[str, float] = defaultdict(float)
        name_self: dict[str, float] = defaultdict(float)
        for span, children in zip(self.spans, child_seconds):
            layer, name, start, end, _ = span
            own = end - start - children
            calls[layer] += 1
            layer_self[layer] += own
            name_self[name] += own
        return calls, layer_self, name_self

    def count(self, name: str) -> int:
        """Spans recorded under one span name."""
        return sum(1 for span in self.spans if span[1] == name)

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV, one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ("index", "layer", "name", "start", "end", "parent")
            )
            for index, span in enumerate(self.spans):
                writer.writerow((index, *span))
