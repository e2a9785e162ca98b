"""The robotic tape library: cartridges, drives, arms, kernel, system.

``repro.library`` holds everything between "a request names a
cartridge" and "a drive reads its segments": the cartridge shelf and
its exchange cost, the discrete-event
:class:`~repro.library.kernel.EventKernel`, the
:class:`~repro.library.robot.ArmPool` of
:class:`~repro.library.robot.RobotArm` exchange servers, pluggable
drive-assignment / exchange / arm-assignment policies, the
:class:`~repro.library.aging.MediaAgingModel` of per-cartridge wear,
and the N-drive :class:`MultiDriveSystem` that ties them together —
the package's one serving loop, which with one drive and a preloaded
tape is the paper's single-drive online system.  See
``docs/LIBRARY.md``.
"""

# Cartridge names first: repro.online.striping imports them from the
# submodule directly, and the system module below imports repro.online, so this
# order keeps the partial-module window safe in both directions.
from repro.library.cartridge import Cartridge, DEFAULT_EXCHANGE_SECONDS
from repro.library.aging import MediaAgingModel
from repro.library.drives import DriveBay, DriveState
from repro.library.kernel import EventKernel
from repro.library.policies import (
    ArmAssignmentPolicy,
    ArmView,
    AssignmentPolicy,
    DedicatedBayArms,
    DrainBatchExchange,
    ExchangePolicy,
    LeastBusyArms,
    LeastLoadedAssignment,
    PreemptOnDeadlineExchange,
    RoundRobinArms,
    TapeAffinityAssignment,
    TapeQueueView,
    arm_policy_names,
    assignment_policy_names,
    exchange_policy_names,
    get_arm_policy,
    get_assignment_policy,
    get_exchange_policy,
)
from repro.library.requests import (
    LibraryRequest,
    label_requests,
    poisson_library_stream,
)
from repro.library.robot import ArmPool, ExchangeJob, RobotArm
from repro.library.system import BatchRecord, MultiDriveSystem

__all__ = [
    "ArmAssignmentPolicy",
    "ArmPool",
    "ArmView",
    "AssignmentPolicy",
    "BatchRecord",
    "Cartridge",
    "DEFAULT_EXCHANGE_SECONDS",
    "DedicatedBayArms",
    "DrainBatchExchange",
    "DriveBay",
    "DriveState",
    "EventKernel",
    "ExchangeJob",
    "ExchangePolicy",
    "LeastBusyArms",
    "LeastLoadedAssignment",
    "LibraryRequest",
    "MediaAgingModel",
    "MultiDriveSystem",
    "PreemptOnDeadlineExchange",
    "RobotArm",
    "RoundRobinArms",
    "TapeAffinityAssignment",
    "TapeQueueView",
    "arm_policy_names",
    "assignment_policy_names",
    "exchange_policy_names",
    "get_arm_policy",
    "get_assignment_policy",
    "get_exchange_policy",
    "label_requests",
    "poisson_library_stream",
]
