"""Cost accounting: skeleton vs. full simulation.

The paper claims skeleton simulation cost is "absolutely negligible"
compared to simulating the real system.  These helpers measure both on
the same topology and number of cycles, so the EXP-D2 bench can report
the ratio (and convenience wrappers expose throughput measurement via
the skeleton, which the analysis cross-validation uses heavily).
"""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction
from typing import Dict

from ..graph.model import SystemGraph
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .backend import select
from .sim import SkeletonSim


def measure_throughput(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_cycles: int = 10_000,
    **skeleton_kwargs,
) -> Dict[str, Fraction]:
    """Exact steady-state throughput of every shell and sink.

    Runs the skeleton to periodicity (through whichever backend
    :func:`repro.skeleton.backend.select` picks) and returns firings
    (acceptances) per cycle as exact fractions — the numbers the
    paper's formulas predict.
    """
    result = select(graph, variant, **skeleton_kwargs) \
        .run(max_cycles=max_cycles)[0]
    rates: Dict[str, Fraction] = {}
    for name, fires in result.shell_fires.items():
        rates[name] = Fraction(fires, result.period)
    for name, accepts in result.sink_accepts.items():
        rates[name] = Fraction(accepts, result.period)
    return rates


def system_throughput(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_cycles: int = 10_000,
    **skeleton_kwargs,
) -> Fraction:
    """Minimum shell throughput — the paper's "System Throughput"."""
    result = select(graph, variant, **skeleton_kwargs) \
        .run(max_cycles=max_cycles)[0]
    return result.min_shell_throughput()


@dataclasses.dataclass
class CostComparison:
    """Wall-clock comparison between skeleton and full simulation."""

    cycles: int
    skeleton_seconds: float
    full_seconds: float

    @property
    def speedup(self) -> float:
        if self.skeleton_seconds <= 0:
            return float("inf")
        return self.full_seconds / self.skeleton_seconds


def compare_cost(
    graph: SystemGraph,
    cycles: int = 2_000,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    strict: bool = True,
) -> CostComparison:
    """Time *cycles* cycles of skeleton vs. full-data simulation.

    Each side is the best of five rounds that alternate with the other
    side's, so a host that slows down for a while slows both sides
    alike.  Each round builds a fresh simulator and elaborates a fresh
    system before its clock starts.
    """
    skeleton_seconds = full_seconds = float("inf")
    for _round in range(5):
        sim = SkeletonSim(graph, variant=variant, detect_ambiguity=False)
        start = time.perf_counter()
        for _ in range(cycles):
            sim.step()
        skeleton_seconds = min(skeleton_seconds,
                               time.perf_counter() - start)

        system = graph.elaborate(variant=variant, strict=strict)
        start = time.perf_counter()
        system.run(cycles)
        full_seconds = min(full_seconds, time.perf_counter() - start)

    return CostComparison(
        cycles=cycles,
        skeleton_seconds=skeleton_seconds,
        full_seconds=full_seconds,
    )
