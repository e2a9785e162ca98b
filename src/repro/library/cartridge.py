"""Shelved cartridges and the robot's exchange time.

The paper's second experiment scenario "applies to a robotic tape
changer that has just loaded a new tape, so the tape head is at the
beginning of the tape", and footnote 5 notes that single-reel cartridge
technologies (DLT, IBM 3590) must rewind before ejecting.  The library
charges exactly those mechanics: loading a cartridge costs one
exchange, shelving one costs rewind-to-BOT plus one exchange, and a
freshly mounted cartridge always starts at segment 0.  The robot arms
of :class:`~repro.library.system.MultiDriveSystem` charge them in
simulated time; this module holds the shelf entries they move.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.tape import TapeGeometry
from repro.model.locate import LocateTimeModel

#: Typical robotic cartridge-exchange time (pick, move, load), seconds.
DEFAULT_EXCHANGE_SECONDS = 30.0


@dataclass
class Cartridge:
    """One shelved cartridge: geometry plus its calibrated model.

    ``model`` may be omitted; :meth:`__post_init__` then calibrates a
    :class:`~repro.model.locate.LocateTimeModel` from the geometry, so
    after construction it is never ``None``.
    """

    label: str
    geometry: TapeGeometry
    model: LocateTimeModel | None = None

    def __post_init__(self) -> None:
        if self.model is None:
            self.model = LocateTimeModel(self.geometry)
