"""The package's public surface."""

import importlib
import warnings

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_package_reexports_the_facade(self):
        # repro.api alone decides what is public; the package adds
        # only the facade module itself.
        from repro import api

        assert set(repro.__all__) == set(api.__all__) | {"api"}
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name), name

    def test_blessed_names_stay_warning_free(self):
        from repro import api

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in api.__all__:
                getattr(api, name)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.geometry",
            "repro.model",
            "repro.drive",
            "repro.scheduling",
            "repro.workload",
            "repro.online",
            "repro.library",
            "repro.cache",
            "repro.analysis",
            "repro.obs",
            "repro.api",
            "repro.experiments",
        ],
    )
    def test_subpackage_all_resolve(self, module):
        package = importlib.import_module(module)
        for name in package.__all__:
            assert hasattr(package, name), f"{module}.{name}"

    def test_docstring_quickstart_runs(self, tiny, tiny_model):
        # The snippet in the package docstring, on a tiny tape.
        from repro import LossScheduler, SimulatedDrive, execute_schedule

        batch = [5, 42, 199, 310]
        schedule = LossScheduler().schedule(
            tiny_model, 0, batch
        )
        drive = SimulatedDrive(tiny_model)
        result = execute_schedule(drive, schedule)
        assert result.total_seconds > 0

    def test_exception_hierarchy(self):
        assert issubclass(repro.SchedulingError, repro.ReproError)
        assert issubclass(repro.SegmentOutOfRange, repro.GeometryError)
        assert issubclass(repro.BatchTooLarge, repro.SchedulingError)
        assert issubclass(repro.CacheError, repro.ReproError)
        assert issubclass(repro.NoSamplesError, repro.MetricsError)
        assert issubclass(repro.MetricsError, repro.ReproError)

    def test_facade_covers_the_documented_surface(self):
        # docs/API.md promises these through the facade.
        from repro import api

        for name in (
            "EventBus", "TraceRecorder", "MetricsRegistry",
            "bind_standard_metrics", "summarize_events",
            "response_stats_from_events", "cache_stats_from_events",
            "write_events_jsonl", "read_events_jsonl",
            "MultiDriveSystem", "CachedLibrarySystem", "Cartridge",
            "BatchRecord", "label_requests",
            "SimulatedDrive", "execute_schedule", "get_scheduler",
            "generate_tape", "LocateTimeModel", "SegmentCache",
            "BatchPolicy", "result_to_rows",
            "write_result", "LinearizedModel", "LtspExactScheduler",
            "LtspRepairScheduler", "LtspSweepScheduler",
            "LtspGreedyScheduler", "exact_ltsp_order",
            "linear_deadhead_sections",
        ):
            assert name in api.__all__, name
            assert getattr(api, name) is not None

    def test_facade_names_are_canonical_objects(self):
        # The facade re-exports, never wraps.
        from repro import api
        from repro.library import MultiDriveSystem
        from repro.obs import EventBus

        assert api.EventBus is EventBus
        assert api.MultiDriveSystem is MultiDriveSystem

    def test_observability_quickstart_runs(self, tiny):
        # The docs/OBSERVABILITY.md hook-API snippet, on a tiny tape.
        from repro import api
        from repro.workload import TimedRequest

        bus = api.EventBus()
        recorder = api.TraceRecorder(bus)
        registry = api.bind_standard_metrics(bus)
        system = api.MultiDriveSystem(
            [api.Cartridge("tape", tiny)], drives=1, preload=["tape"],
            bus=bus,
        )
        stats = system.run(
            api.label_requests(
                "tape", [TimedRequest(0.0, 7), TimedRequest(1.0, 80)]
            )
        )
        assert stats.count == 2
        assert recorder.summary().request_count == 2
        assert registry.histogram("request.response_seconds").count == 2

    def test_cache_quickstart_runs(self, tiny):
        # The docs/CACHING.md composition snippet, on a tiny tape.
        from repro import (
            CachedLibrarySystem,
            Cartridge,
            GDSFPolicy,
            MultiDriveSystem,
            SegmentCache,
            label_requests,
        )
        from repro.workload import TimedRequest

        system = CachedLibrarySystem(
            system=MultiDriveSystem(
                [Cartridge("tape", tiny)], drives=1, preload=["tape"]
            ),
            cache=SegmentCache(64, policy=GDSFPolicy()),
        )
        stats = system.run(
            label_requests(
                "tape", [TimedRequest(0.0, 7), TimedRequest(9000.0, 7)]
            )
        )
        assert stats.count == 2
        assert system.cache_stats.hits == 1
