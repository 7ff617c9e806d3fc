"""Topology transforms: the paper's deadlock cures and relay edits.

The paper's remedy for a system whose skeleton simulation injects a
deadlock: *"the cases that inject deadlocks can be 'cured' by low
intrusive changes (adding/substituting few relay stations)"*.  This
module implements those low-intrusive edits:

* :func:`promote_half_relays` — replace half relay stations with full
  ones (optionally only those on loops, which is where the hazard is);
* :func:`insert_relay` — add a relay station on a chosen edge;
* :func:`cure_deadlock` — the automated recipe: promote the half relay
  stations on loops until the skeleton simulation runs clean.

All transforms return modified copies; the input graph is untouched.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import AnalysisError, StructuralError
from .equalize import _loop_edge_indices
from .model import SystemGraph


def desugar_queues(graph: SystemGraph,
                   name: Optional[str] = None) -> SystemGraph:
    """Rewrite queued shells as plain shells behind relay stations.

    A depth-2 input FIFO with registered stop is token-flow equivalent
    to a full relay station feeding a plain shell (both are 2-slot skid
    stages; the equivalence is asserted empirically in
    ``benchmarks/bench_memory_placement.py``).  Each queued input is
    therefore desugared into ``(depth // 2)`` full stations plus
    ``(depth % 2)`` registered-stop half stations appended to its
    incoming chain.  The resulting graph contains only constructs the
    skeleton simulator and the MCR analyzer model natively, which is
    how both support queued shells.
    """
    plain = graph.copy(name or f"{graph.name}_desugared")
    queued = {
        node.name: node.queue_depth
        for node in plain.nodes.values()
        if node.queue_depth is not None
    }
    for node_name in queued:
        plain.nodes[node_name].queue_depth = None
    for edge in plain.edges:
        depth = queued.get(edge.dst)
        if depth is None:
            continue
        extra = ("full",) * (depth // 2) + \
            ("half-registered",) * (depth % 2)
        edge.relays = edge.relays + extra
    return plain


def promote_half_relays(
    graph: SystemGraph,
    only_loops: bool = True,
    name: Optional[str] = None,
) -> SystemGraph:
    """Replace half relay stations with full ones.

    With ``only_loops=True`` (the paper's minimal cure) only half relay
    stations sitting on cycles are promoted; feed-forward half stations
    are harmless and stay.
    """
    cured = graph.copy(name or f"{graph.name}_promoted")
    targets = _loop_edge_indices(graph) if only_loops else set(
        range(len(graph.edges)))
    for idx, edge in enumerate(cured.edges):
        if idx in targets:
            edge.relays = tuple(
                "full" if spec.startswith("half") else spec
                for spec in edge.relays
            )
    return cured


def insert_relay(
    graph: SystemGraph,
    src: str,
    dst: str,
    spec: str = "full",
    position: int = 0,
    name: Optional[str] = None,
) -> SystemGraph:
    """Insert one relay station at *position* on the edge *src* -> *dst*.

    When several parallel edges exist the first is edited.  Raises
    :class:`StructuralError` if no such edge exists.
    """
    edited = graph.copy(name or f"{graph.name}_plus_rs")
    for edge in edited.edges:
        if edge.src == src and edge.dst == dst:
            chain = list(edge.relays)
            position = max(0, min(position, len(chain)))
            chain.insert(position, spec)
            edge.relays = tuple(chain)
            return edited
    raise StructuralError(f"no edge {src!r} -> {dst!r} to insert into")


def half_relays_on_loops(graph: SystemGraph) -> List[Tuple[str, str, int]]:
    """Locate loop-resident half relay stations: (src, dst, chain index).

    This is the paper's deadlock-hazard census: *"Any LID with full and
    half relay stations has potential deadlocks iff half relay stations
    are present in loops"*.
    """
    hazards: List[Tuple[str, str, int]] = []
    for idx in sorted(_loop_edge_indices(graph)):
        edge = graph.edges[idx]
        for k, spec in enumerate(edge.relays):
            if spec.startswith("half"):
                hazards.append((edge.src, edge.dst, k))
    return hazards


def cure_deadlock(
    graph: SystemGraph,
    max_cycles: int = 10_000,
    name: Optional[str] = None,
) -> Tuple[SystemGraph, List[Tuple[str, str, int]]]:
    """Promote loop-resident half relay stations until the skeleton is clean.

    Returns ``(cured_graph, promotions)`` where *promotions* lists the
    stations that were upgraded.  If the graph already skeleton-simulates
    without deadlock it is returned unchanged (with an empty list) —
    the paper notes many hazardous-looking systems never actually inject
    their deadlock, so the cure is applied only when needed.
    """
    from .._registry import resolve

    check_deadlock = resolve("skeleton.check_deadlock")
    verdict = check_deadlock(graph, max_cycles=max_cycles)
    if not verdict.deadlocked and not verdict.potential:
        return graph, []
    hazards = half_relays_on_loops(graph)
    if not hazards:
        raise AnalysisError(
            f"{graph.name}: deadlock detected but no loop-resident half "
            f"relay stations to promote; manual restructuring required"
        )
    cured = promote_half_relays(graph, only_loops=True, name=name)
    verdict = check_deadlock(cured, max_cycles=max_cycles)
    if verdict.deadlocked:
        raise AnalysisError(
            f"{graph.name}: deadlock persists after promoting all "
            f"loop-resident half relay stations"
        )
    return cured, hazards
