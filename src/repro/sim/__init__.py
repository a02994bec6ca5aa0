"""Synchronous cycle-based simulation kernel.

This package is the foundation of the reproduction: a deterministic,
order-independent clocked simulator in which hardware modules are
:class:`Component` subclasses connected by registered FIFO
:class:`Channel` links.
"""

from .channel import Channel, UNBOUNDED
from .component import Component
from .errors import (
    ChannelError,
    ConfigurationError,
    ReproError,
    SimulationError,
)
from .events import (EventBus, GrantRevocationEvent, PortFaultEvent,
                     PortRecoveryEvent)
from .kernel import Simulator
from .parallel import ParallelEngine, measured_backend
from .partition import ShardPlan, Stage, build_plan
from .stats import (
    Histogram,
    KernelSkipStats,
    OnlineStats,
    PortFaultStats,
    RateCounter,
)
from .trace import TraceEvent, Tracer
from .wakeheap import WakeHeap

__all__ = [
    "Channel",
    "UNBOUNDED",
    "Component",
    "ChannelError",
    "ConfigurationError",
    "ReproError",
    "SimulationError",
    "EventBus",
    "GrantRevocationEvent",
    "PortFaultEvent",
    "PortRecoveryEvent",
    "Simulator",
    "Histogram",
    "KernelSkipStats",
    "OnlineStats",
    "PortFaultStats",
    "RateCounter",
    "TraceEvent",
    "Tracer",
    "WakeHeap",
    "ParallelEngine",
    "measured_backend",
    "ShardPlan",
    "Stage",
    "build_plan",
]
