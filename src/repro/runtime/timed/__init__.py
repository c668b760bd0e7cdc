"""The continuous-time model: hardware clocks, δ-delay messaging, and
the Bounded-Delay Locality / Scaling axioms."""

from ..._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "adversary": ("TimedCrashDevice", "TimedReplayDevice", "TimedSilentDevice"),
    "behavior": (
        "TimedBehavior", "TimedEdgeBehavior", "TimedEvent", "TimedNodeBehavior",
        "events_equal",
    ),
    "clocks": (
        "ClockError", "ClockFunction", "ComposedClock", "LinearClock",
        "PowerClock", "compose", "drift_map", "identity", "verify_clock_order",
    ),
    "device": (
        "DeviceApi", "DeviceFactory", "LogicalClockFn", "TimedContext",
        "TimedDevice",
    ),
    "executor": ("TimedExecutionError", "run_timed"),
    "system": (
        "TimedNodeAssignment", "TimedSystem", "install_in_covering_timed",
        "make_timed_system",
    ),
})
