"""Floorplan-driven relay insertion: from wire lengths to stations.

The paper's opening problem: *"The performance of future Systems-on-
Chip will be limited by the latency of long interconnects requiring
more than one clock cycle for the signals to propagate."*  This module
closes the loop from physical design to the protocol:

1. place each block of a :class:`~repro.graph.model.SystemGraph` on a
   grid (:class:`Placement` — explicit coordinates, or the layered
   auto-placer);
2. derive every channel's Manhattan wire length and, given the signal
   *reach* (grid units per clock cycle), the number of relay stations
   the wire needs (:func:`required_relays`);
3. annotate the graph (:func:`apply_floorplan`), optionally re-balance
   reconvergent paths, and report the throughput consequences.

The result is exactly the methodology the paper prescribes: take the
zero-delay design, let the floorplan dictate the pipelining, and let
the protocol absorb it — with the toolkit quantifying what each
centimetre of wire costs.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..errors import AnalysisError, StructuralError
from . import digraph
from .equalize import equalize
from .model import Edge, SystemGraph

Coordinate = Tuple[float, float]


@dataclasses.dataclass
class Placement:
    """Block coordinates on an abstract grid."""

    positions: Dict[str, Coordinate]

    def require(self, graph: SystemGraph) -> None:
        missing = sorted(set(graph.nodes) - set(self.positions))
        if missing:
            raise StructuralError(
                f"placement misses blocks: {missing}")

    def distance(self, a: str, b: str) -> float:
        """Manhattan distance between two placed blocks."""
        ax, ay = self.positions[a]
        bx, by = self.positions[b]
        return abs(ax - bx) + abs(ay - by)


def layered_placement(graph: SystemGraph, row_pitch: float = 1.0,
                      column_pitch: float = 1.0) -> Placement:
    """Deterministic auto-placement by topological layer.

    Sources sit in column 0; every other block goes one column right of
    its deepest producer (feedback edges are ignored for layering, so
    loops share a column and their feedback wire spans it).  Rows are
    assigned in name order within a column — crude, deterministic, and
    good enough to exercise wire-length effects.
    """
    succ = digraph.successors(
        graph.nodes, ((edge.src, edge.dst) for edge in graph.edges))
    # Break cycles for layering purposes only.
    for src, dst in digraph.back_edges(succ):
        succ[src].remove(dst)
    preds = digraph.predecessors(succ)
    column: Dict[str, int] = {}
    for node in digraph.topological_order(succ):
        column[node] = max((column[p] + 1 for p in preds[node]), default=0)
    rows: Dict[int, int] = {}
    positions: Dict[str, Coordinate] = {}
    for name in sorted(graph.nodes):
        col = column[name]
        row = rows.get(col, 0)
        rows[col] = row + 1
        positions[name] = (col * column_pitch, row * row_pitch)
    return Placement(positions)


def required_relays(length: float, reach: float) -> int:
    """Stations needed so every wire segment is crossable in one cycle.

    A wire of *length* grid units split by k stations has k+1 segments;
    the protocol needs ``ceil(length / reach) - 1`` stations (zero for
    wires within reach).
    """
    if reach <= 0:
        raise AnalysisError("reach must be positive")
    if length <= 0:
        return 0
    segments = -(-length // reach)  # ceil for floats with // trick
    return max(int(segments) - 1, 0)


@dataclasses.dataclass
class FloorplanReport:
    """Outcome of :func:`apply_floorplan`."""

    graph: SystemGraph
    wire_lengths: Dict[Tuple[str, str], float]
    relays_added: int
    spare_for_balance: int
    throughput: Fraction

    def rows(self) -> List[Tuple[str, float, int]]:
        """(edge, length, relay count) rows for reporting."""
        out = []
        seen = set()
        for edge in self.graph.edges:
            key = (edge.src, edge.dst)
            if key in seen:
                continue
            seen.add(key)
            out.append((f"{edge.src} -> {edge.dst}",
                        self.wire_lengths[key], edge.relay_count))
        return out


def apply_floorplan(
    graph: SystemGraph,
    placement: Placement,
    reach: float,
    balance: bool = True,
    name: Optional[str] = None,
) -> FloorplanReport:
    """Annotate *graph* with the relay stations its floorplan demands.

    Every edge gets at least ``required_relays(length, reach)`` full
    stations (existing stations are kept — they count toward the
    requirement).  With ``balance=True`` the result is then path-
    equalized so the physically forced imbalances don't linger as
    throughput loss (loops are never padded).  Returns the annotated
    graph plus the accounting.
    """
    from .._registry import resolve

    system_throughput = resolve("skeleton.system_throughput")
    placement.require(graph)
    annotated = graph.copy(name or f"{graph.name}_placed")
    lengths: Dict[Tuple[str, str], float] = {}
    added = 0
    for edge in annotated.edges:
        length = placement.distance(edge.src, edge.dst)
        lengths[(edge.src, edge.dst)] = length
        need = required_relays(length, reach)
        if (annotated.nodes[edge.src].kind == "shell"
                and annotated.nodes[edge.dst].kind == "shell"):
            # The paper's minimum-memory rule: the simplified shell
            # does not register stops, so every shell-to-shell wire
            # carries at least one station even when physically short.
            need = max(need, 1)
        if need > len(edge.relays):
            added += need - len(edge.relays)
            edge.relays = edge.relays + ("full",) * (
                need - len(edge.relays))
    before_balance = annotated.relay_count()
    if balance:
        annotated = equalize(annotated, name or f"{graph.name}_placed")
    spare = annotated.relay_count() - before_balance
    return FloorplanReport(
        graph=annotated,
        wire_lengths=lengths,
        relays_added=added,
        spare_for_balance=spare,
        throughput=system_throughput(annotated),
    )


def shrink_sweep(
    graph: SystemGraph,
    placement: Placement,
    reaches: List[float],
    balance: bool = True,
) -> List[Tuple[float, int, Fraction]]:
    """(reach, total relay stations, throughput) across process shrinks.

    Smaller reach models a faster clock or a bigger die: wires span
    more cycles, relay stations multiply, and — with balancing — the
    feed-forward throughput stays at 1 while loops degrade as
    S/(S+R), exactly the trade the paper's theory prices.
    """
    rows: List[Tuple[float, int, Fraction]] = []
    for reach in reaches:
        report = apply_floorplan(graph, placement, reach,
                                 balance=balance)
        rows.append((reach, report.graph.relay_count(),
                     report.throughput))
    return rows
