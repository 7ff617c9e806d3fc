"""Transient length analysis.

The paper: the transient *"is related to the number of relay stations
and shells, and can be predicted upfront"* — which is what makes the
simulate-to-transient-extinction deadlock strategy affordable.

This module provides the measured quantity (via skeleton periodicity
detection), the static bound, and a tree-specific exact statement:
for trees the initial latency before full-speed firing is at most the
longest source-to-sink path (in register stages), because the voids
initially stored in relay stations must drain toward the primary
outputs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..errors import AnalysisError
from ..graph import digraph
from ..graph.model import SystemGraph
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from ..skeleton.periodicity import transient_bound


@dataclasses.dataclass
class TransientReport:
    """Measured vs. predicted transient for one system."""

    measured_transient: int
    period: int
    static_bound: int
    longest_path: int

    @property
    def within_bound(self) -> bool:
        return self.measured_transient <= self.static_bound


def longest_register_path(graph: SystemGraph) -> int:
    """Longest source-to-sink path counting register stages.

    Each hop contributes its relay stations plus one register for the
    producing shell or source.  For feed-forward graphs this is the
    pipeline depth; the tree claim bounds the transient by it.  Raises
    for cyclic graphs.
    """
    order = digraph.topological_order(digraph.successors(
        graph.nodes, ((edge.src, edge.dst) for edge in graph.edges)))
    if order is None:
        raise AnalysisError("longest path needs an acyclic graph")
    incoming: Dict[str, list] = {node: [] for node in order}
    for edge in graph.edges:
        incoming[edge.dst].append(edge)
    depth: Dict[str, int] = {}
    for node in order:
        depth[node] = max((depth[edge.src] + edge.relay_count + 1
                           for edge in incoming[node]), default=0)
    return max(depth.values(), default=0)


def analyze_transient(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_cycles: int = 100_000,
    **skeleton_kwargs,
) -> TransientReport:
    """Measure the transient and compare against the static bound."""
    from ..skeleton.sim import SkeletonSim

    sim = SkeletonSim(graph, variant=variant, **skeleton_kwargs)
    result = sim.run(max_cycles=max_cycles)
    try:
        longest = longest_register_path(graph)
    except AnalysisError:
        longest = -1  # cyclic: the tree bound does not apply
    return TransientReport(
        measured_transient=result.transient,
        period=result.period,
        static_bound=transient_bound(graph),
        longest_path=longest,
    )


def first_full_speed_cycle(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_cycles: int = 10_000,
    sink: Optional[str] = None,
) -> int:
    """First cycle from which a sink accepts a token every cycle.

    This is the paper's tree-topology "initial latency ... before firing
    at full speed"; for trees it is bounded by the longest path.
    Raises :class:`AnalysisError` if the sink never reaches rate 1
    (e.g. on a throughput-limited topology).
    """
    from ..skeleton.sim import SkeletonSim

    sim = SkeletonSim(graph, variant=variant)
    if sink is None:
        sinks = graph.sinks()
        if len(sinks) != 1:
            raise AnalysisError("specify the sink to watch")
        sink = sinks[0].name
    result = sim.run(max_cycles=max_cycles)
    sink_idx = sim.sink_names.index(sink)
    accepts = [row[sink_idx] for row in sim.accept_history]
    # Walk backwards over the prefix: the steady regime must be all-ones.
    if result.sink_accepts[sink] != result.period:
        raise AnalysisError(
            f"sink {sink!r} does not reach full speed "
            f"(rate {result.sink_accepts[sink]}/{result.period})"
        )
    last_gap = -1
    for cycle, accepted in enumerate(accepts[: result.transient + result.period]):
        if not accepted:
            last_gap = cycle
    return last_gap + 1
