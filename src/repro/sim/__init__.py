"""Discrete-event simulation kernel used by every substrate in this repo."""

from .engine import AllOf, AnyOf, Event, Process, Simulator, Timeout
from .resources import Lock, Queue, ReadAhead, Resource
from .stats import LatencyStats, ThroughputSeries, throughput_mib_s
from .tuning import simulation_gc

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "Lock",
    "Queue",
    "ReadAhead",
    "Resource",
    "LatencyStats",
    "ThroughputSeries",
    "throughput_mib_s",
    "simulation_gc",
]
