"""The retired deprecation shims stay retired.

The cartridge shelf lives in ``repro.library.cartridge``; the warn-once
``repro.online.library`` module and the ``repro.online`` re-exports
that pointed there are gone, and so are the synchronous single-drive
``TapeLibrary`` and the off-kernel ``StripedTapeArray`` (with its
``StripedBatchResult``): ``MultiDriveSystem`` serves both settings.
So are the ``repro.drive.events`` module (the drive events live in
``repro.obs.events``) and the facade's fallbacks for the demoted
observability names (``repro.obs`` exports them).
"""

import importlib
import warnings

import pytest

from repro.library.cartridge import Cartridge, DEFAULT_EXCHANGE_SECONDS


class TestDeprecationShim:
    def test_package_reexports_stay_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro import api
            from repro.library import (
                Cartridge as library_cartridge,
                DEFAULT_EXCHANGE_SECONDS as library_exchange,
            )

            assert library_cartridge is Cartridge is api.Cartridge
            assert library_exchange == DEFAULT_EXCHANGE_SECONDS

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
        for name in ("Subscription", "event_from_record", "TapeLibrary"):
            with pytest.raises(AttributeError):
                getattr(api, name)
            assert name not in api.__all__
        # The synchronous single-drive library and the off-kernel
        # striped array are served by MultiDriveSystem now.
        library = importlib.import_module("repro.library")
        cartridge = importlib.import_module("repro.library.cartridge")
        for module in (library, cartridge):
            assert not hasattr(module, "TapeLibrary")
        assert "TapeLibrary" not in library.__all__
        striping = importlib.import_module("repro.online.striping")
        for name in ("StripedTapeArray", "StripedBatchResult"):
            for module in (online, striping):
                assert not hasattr(module, name)
            assert name not in online.__all__
