"""Path equalization: balancing reconvergent branches with spare relays.

Paper: *"To get the maximum T from a feedforward arrangement, it is
necessary to insert enough spare relay stations to make all converging
paths of the same length (path equalization)."*

Only relay stations count toward the imbalance.  An intermediate shell
adds one cycle of latency **and** one initial valid token (shell outputs
reset valid), so shells are self-compensating; a relay station adds
latency with a void (relay stations reset empty), and it is exactly the
relay-count difference ``i`` between branches that injects ``i`` voids
per period (see DESIGN.md §4 and the EXP-T2 bench).

The algorithm is the classic slack-distribution pass: compute for every
node the maximum relay-depth over all source-to-node paths, then pad
every in-edge whose path arrives early.  It is exact for DAGs; graphs
with loops are equalized on their acyclic condensation only (loops set
their own throughput, which equalization cannot raise — the paper makes
the same observation).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import AnalysisError
from . import digraph
from .model import Edge, SystemGraph


def _loop_edge_indices(graph: SystemGraph) -> set:
    """Indices of edges lying inside a strongly connected component.

    These are the feedback arcs: equalization never pads them (a loop
    sets its own throughput, which spare relay stations only lower).
    """
    component_of: Dict[str, int] = {}
    for index, comp in enumerate(digraph.strongly_connected_components(
            _successors(graph, graph.edges))):
        for node in comp:
            component_of[node] = index
    return {idx for idx, edge in enumerate(graph.edges)
            if component_of[edge.src] == component_of[edge.dst]}


def _successors(graph: SystemGraph, edges: List[Edge]) -> digraph.Successors:
    return digraph.successors(graph.nodes,
                              ((edge.src, edge.dst) for edge in edges))


def relay_depths(graph: SystemGraph, strict: bool = True) -> Dict[str, int]:
    """Maximum relay count over all paths from any source to each node.

    With ``strict=True`` (default) a cyclic graph raises
    :class:`AnalysisError` — depth along a cycle is ill-defined.  With
    ``strict=False`` feedback arcs (edges inside a strongly connected
    component) are ignored, giving depths on the acyclic condensation,
    which is what loop-aware equalization needs.
    """
    loop_edges = _loop_edge_indices(graph)
    if strict and loop_edges:
        raise AnalysisError("relay depths need an acyclic graph")
    kept = [edge for idx, edge in enumerate(graph.edges)
            if idx not in loop_edges]
    incoming: Dict[str, List[Edge]] = {node: [] for node in graph.nodes}
    for edge in kept:
        incoming[edge.dst].append(edge)
    depth: Dict[str, int] = {}
    for node in digraph.topological_order(_successors(graph, kept)):
        depth[node] = max((depth[edge.src] + edge.relay_count
                           for edge in incoming[node]), default=0)
    return depth


def imbalance(graph: SystemGraph) -> int:
    """Total spare relay stations needed to fully equalize the graph."""
    return sum(extra for _e, extra in equalization_plan(graph))


def equalization_plan(graph: SystemGraph) -> List[Tuple[Edge, int]]:
    """For each edge, how many spare relay stations to append.

    The plan pads every in-edge of every node up to the node's maximum
    relay depth, which makes all converging paths carry the same relay
    count — the paper's path-equalization recipe.  Feedback arcs are
    left untouched (loops dictate their own throughput; padding them
    only lowers S/(S+R)).
    """
    depth = relay_depths(graph, strict=False)
    loop_edges = _loop_edge_indices(graph)
    plan: List[Tuple[Edge, int]] = []
    for idx, edge in enumerate(graph.edges):
        if idx in loop_edges:
            continue
        slack = depth[edge.dst] - depth[edge.src] - edge.relay_count
        if slack < 0:  # pragma: no cover - depth is a max, so slack >= 0
            raise AnalysisError(
                f"negative slack on {edge.src}->{edge.dst}: depth map broken"
            )
        if slack > 0:
            plan.append((edge, slack))
    return plan


def equalize(graph: SystemGraph, name: str | None = None) -> SystemGraph:
    """Return a copy of *graph* with spare full relay stations inserted.

    After equalization every reconvergent branch carries the same number
    of relay stations, so the feed-forward part of the system reaches
    throughput 1 (bench EXP-T3 verifies before/after by simulation).
    """
    balanced = graph.copy(name or f"{graph.name}_equalized")
    plan = equalization_plan(graph)
    keyed = {id(edge): extra for edge, extra in plan}
    for original, copied in zip(graph.edges, balanced.edges):
        extra = keyed.get(id(original), 0)
        if extra:
            copied.relays = copied.relays + ("full",) * extra
    return balanced
