"""Execution-with-sampling substrate: simulated PMU, Dyninst-style
monitor, raw sample records, and address resolution (paper §IV.B–C).
"""

from .monitor import Monitor, OverheadStats, STACKWALK_CYCLES
from .pmu import DEFAULT_THRESHOLD, PAPER_THRESHOLD, PMUConfig, is_prime, pick_prime_threshold
from .records import RawSample
from .stackwalk import ResolvedFrame, StackResolver

__all__ = [
    "DEFAULT_THRESHOLD",
    "Monitor",
    "OverheadStats",
    "PAPER_THRESHOLD",
    "PMUConfig",
    "RawSample",
    "ResolvedFrame",
    "STACKWALK_CYCLES",
    "StackResolver",
    "is_prime",
    "pick_prime_threshold",
]
