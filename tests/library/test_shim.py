"""The retired deprecation shims stay retired.

The cartridge shelf and single-drive library live in
``repro.library.cartridge``; the warn-once ``repro.online.library``
module and the ``repro.online`` re-exports that pointed there are gone.
So are the ``repro.drive.events`` module (the drive events live in
``repro.obs.events``) and the facade's fallbacks for the demoted
observability names (``repro.obs`` exports them).
"""

import importlib
import warnings

import pytest

from repro.library.cartridge import (
    Cartridge,
    DEFAULT_EXCHANGE_SECONDS,
    TapeLibrary,
)


class TestDeprecationShim:
    def test_package_reexports_stay_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro import api
            from repro.library import (
                Cartridge as library_cartridge,
                DEFAULT_EXCHANGE_SECONDS as library_exchange,
                TapeLibrary as library_tape_library,
            )

            assert library_cartridge is Cartridge is api.Cartridge
            assert library_exchange == DEFAULT_EXCHANGE_SECONDS
            assert library_tape_library is TapeLibrary is api.TapeLibrary

    def test_retired_import_paths_are_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.online.library")
        online = importlib.import_module("repro.online")
        for name in ("Cartridge", "DEFAULT_EXCHANGE_SECONDS", "TapeLibrary"):
            assert not hasattr(online, name)
            assert name not in online.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.drive.events")
        api = importlib.import_module("repro.api")
        for name in ("Subscription", "event_from_record"):
            with pytest.raises(AttributeError):
                getattr(api, name)
