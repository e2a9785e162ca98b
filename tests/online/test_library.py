"""The robotic tape library's shelf: labels, uniqueness, unknown tapes."""

import pytest

from repro.exceptions import LibraryError, UnknownTape
from repro.geometry import tiny_tape
from repro.library import Cartridge, LibraryRequest, MultiDriveSystem


@pytest.fixture()
def library():
    return MultiDriveSystem(
        [
            Cartridge("beta", tiny_tape(seed=2)),
            Cartridge("alpha", tiny_tape(seed=1)),
        ],
        drives=1,
        exchange_seconds=30.0,
    )


class TestShelf:
    def test_labels(self, library):
        assert library.labels() == ["alpha", "beta"]
        assert library.cartridge("alpha").label == "alpha"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LibraryError):
            MultiDriveSystem(
                [
                    Cartridge("x", tiny_tape(seed=1)),
                    Cartridge("x", tiny_tape(seed=2)),
                ],
                drives=1,
            )

    def test_unknown_tape(self, library):
        with pytest.raises(UnknownTape):
            library.cartridge("gamma")
        with pytest.raises(UnknownTape, match="gamma"):
            library.run([LibraryRequest(0.0, "gamma", 1)])
