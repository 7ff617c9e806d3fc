"""Skeleton (valid/stop-only) simulation, periodicity and deadlock tools."""

from .backend import BitplaneBackend, ScalarBackend, select
from .bitsim import BitplaneSkeletonSim
from .deadlock import DeadlockVerdict, check_deadlock, is_deadlock_free_class
from .fast import CostComparison, compare_cost, measure_throughput, system_throughput
from .periodicity import (
    detect_period,
    transient_and_period,
    transient_bound,
    transient_estimate,
)
from .sim import SkeletonResult, SkeletonSim

__all__ = [
    "BitplaneBackend",
    "BitplaneSkeletonSim",
    "CostComparison",
    "DeadlockVerdict",
    "ScalarBackend",
    "SkeletonResult",
    "SkeletonSim",
    "check_deadlock",
    "compare_cost",
    "detect_period",
    "is_deadlock_free_class",
    "measure_throughput",
    "select",
    "system_throughput",
    "transient_and_period",
    "transient_bound",
    "transient_estimate",
]
