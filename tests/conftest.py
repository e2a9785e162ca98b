"""Shared fixtures.

Expensive objects (full-size tapes, their models) are session-scoped;
everything built from them in tests must treat them as immutable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import generate_tape, tiny_tape
from repro.library import Cartridge, MultiDriveSystem
from repro.model import LocateTimeModel


@pytest.fixture(scope="session")
def tiny():
    """A miniature tape: 4 tracks, a few hundred segments."""
    return tiny_tape(seed=3)


@pytest.fixture(scope="session")
def tiny_model(tiny):
    """Locate model for the miniature tape."""
    return LocateTimeModel(tiny)


@pytest.fixture(scope="session")
def full_tape():
    """A full-size (622,058 segment) synthetic cartridge."""
    return generate_tape(seed=1)


@pytest.fixture(scope="session")
def full_model(full_tape):
    """Locate model for the full-size cartridge."""
    return LocateTimeModel(full_tape)


@pytest.fixture(scope="session")
def single_drive():
    """Builder for the paper's single-drive online system.

    ``single_drive(geometry, **config)`` is a 1-drive
    :class:`~repro.library.MultiDriveSystem` with ``geometry`` preloaded
    as cartridge ``"tape"``; address requests to it with
    ``label_requests("tape", stream)``.
    """

    def build(geometry, **config):
        return MultiDriveSystem(
            [Cartridge("tape", geometry)],
            drives=1,
            preload=["tape"],
            **config,
        )

    return build


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(12345)


def pytest_addoption(parser):
    """Golden-fixture regeneration (see tests/experiments/test_golden.py).

    Run ``pytest tests/experiments/test_golden.py --regen-golden`` after
    an *intentional* output change to rewrite the frozen JSON fixtures;
    the regenerating run still executes the comparison, so a regen
    that fails to round-trip fails loudly.
    """
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/experiments/golden/*.json from the current code",
    )


@pytest.fixture()
def regen_golden(request):
    """Whether this run should rewrite the golden fixtures."""
    return request.config.getoption("--regen-golden")
