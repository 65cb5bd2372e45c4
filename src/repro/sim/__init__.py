"""Discrete-event simulation kernel used by every substrate in this repo."""

from .engine import AllOf, Event, Process, Simulator, Timeout
from .resources import Lock, ReadAhead, Resource
from .stats import LatencyStats, ThroughputSeries, throughput_mib_s
from .tuning import simulation_gc

__all__ = [
    "AllOf",
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "Lock",
    "ReadAhead",
    "Resource",
    "LatencyStats",
    "ThroughputSeries",
    "throughput_mib_s",
    "simulation_gc",
]
