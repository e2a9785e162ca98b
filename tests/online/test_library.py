"""Robotic tape library."""

import pytest

from repro.exceptions import LibraryError, UnknownTape
from repro.geometry import tiny_tape
from repro.library import Cartridge, TapeLibrary


@pytest.fixture()
def library():
    return TapeLibrary(
        [
            Cartridge("alpha", tiny_tape(seed=1)),
            Cartridge("beta", tiny_tape(seed=2)),
        ],
        exchange_seconds=30.0,
    )


class TestShelf:
    def test_labels(self, library):
        assert library.labels() == ["alpha", "beta"]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LibraryError):
            TapeLibrary(
                [
                    Cartridge("x", tiny_tape(seed=1)),
                    Cartridge("x", tiny_tape(seed=2)),
                ]
            )

    def test_unknown_tape(self, library):
        with pytest.raises(UnknownTape):
            library.mount("gamma")


class TestMounting:
    def test_mount_costs_exchange(self, library):
        spent = library.mount("alpha")
        assert spent == pytest.approx(30.0)
        assert library.mounted_label == "alpha"
        assert library.drive.position == 0

    def test_remount_is_free(self, library):
        library.mount("alpha")
        assert library.mount("alpha") == 0.0

    def test_switch_includes_rewind(self, library):
        library.mount("alpha")
        library.drive.locate(200)
        spent = library.mount("beta")
        # Unmount (rewind + exchange) plus the new mount's exchange.
        assert spent > 60.0
        assert library.mounted_label == "beta"
        assert library.drive.position == 0

    def test_unmount_without_mount(self, library):
        with pytest.raises(LibraryError):
            library.unmount()

    def test_drive_without_mount(self, library):
        with pytest.raises(LibraryError):
            library.drive


class TestClock:
    def test_accumulates_robot_and_drive_time(self, library):
        assert library.clock_seconds == 0.0
        library.mount("alpha")
        assert library.clock_seconds == pytest.approx(30.0)
        library.drive.locate(150)
        moved = library.clock_seconds
        assert moved > 30.0
        library.unmount()
        # Drive time is folded into the library clock at unmount.
        assert library.clock_seconds > moved

    def test_cartridge_model_autobuilt(self):
        cartridge = Cartridge("solo", tiny_tape(seed=3))
        assert cartridge.model.geometry is cartridge.geometry
