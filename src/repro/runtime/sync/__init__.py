"""The synchronous round model: devices, systems, executor, behaviors,
and Byzantine adversaries (including the Fault-axiom replay device)."""

from ..._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "adversary": (
        "CrashDevice", "DelayedEchoDevice", "RandomLiarDevice",
        "ReplayDevice", "SilentDevice", "TwoFacedDevice",
    ),
    "collapse": (
        "GroupDevice", "PortRenamedDevice", "collapse_system",
        "verify_collapse",
    ),
    "behavior": ("EdgeBehavior", "NodeBehavior", "Scenario", "SyncBehavior"),
    "device": (
        "FunctionDevice", "Message", "NodeContext", "PortLabel", "State",
        "SyncDevice",
    ),
    "executor": ("ExecutionError", "check_determinism", "execute_plan", "run"),
    "system": (
        "NodeAssignment", "SyncSystem", "identity_ports",
        "install_in_covering", "make_system", "uniform_system",
    ),
})
