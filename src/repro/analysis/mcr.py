"""General static throughput via minimum cycle ratio (MCR) analysis.

The paper derives throughput formulas per topology class; this module
generalizes them to arbitrary compositions with the classic marked-graph
argument (in the spirit of Carloni & Sangiovanni-Vincentelli, DAC'00):

1. Expand the system into **storage slots** — shell output registers
   (capacity 1, initialized with 1 token, transparent stop), full relay
   stations (capacity 2, empty, registered stop) and half relay
   stations (capacity 1, empty, transparent stop).
2. For each flow adjacency ``a -> b`` add a *forward* arc with delay 1
   and ``tokens(a)`` tokens, and a *reverse* (back-pressure) arc
   ``b -> a`` with delay ``reverse_delay(a)`` (1 where the stop is
   registered, 0 where it is combinational) carrying the *free
   capacity* of ``a``.
3. System throughput = min(1, minimum over directed cycles of
   tokens/delay).

The forward cycles reproduce S/(S+R) for feedback loops; cycles mixing
forward and reverse arcs reproduce the (m−i)/m reconvergence penalty —
the "implicit loops created by the introduction of reverse-flowing stop
signals" the paper describes.  The EXP-T benches cross-validate this
analyzer against skeleton simulation on every topology family and on
random graphs.

The model assumes the paper's *refined* stop discipline (stops on voids
discarded).  The original protocol matches the bound on clean
topologies but can run below it on multi-level reconvergence, where it
keeps re-freezing the voids the imbalance regenerates (see EXP-T6's
steady-state finding in EXPERIMENTS.md).

"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..errors import AnalysisError
from ..graph.model import SystemGraph
from ..ir import LoweredSystem, lower

#: Slot parameters per element kind: (capacity, initial tokens, reverse delay)
_SLOT_PARAMS = {
    "shell-reg": (1, 1, 0),
    "full": (2, 0, 1),
    "half": (1, 0, 0),
    # The registered-stop half station advertises stop whenever occupied;
    # its cycle-level behaviour is not a pure marked graph (it halves the
    # local transfer rate), so the MCR model treats it as a registered
    # 1-slot stage and callers should treat results as upper bounds.
    "half-registered": (1, 0, 1),
    "source": (None, 1, 0),   # infinite free capacity
    "sink": (None, 0, 0),     # infinite free capacity
}


@dataclasses.dataclass(frozen=True)
class _Arc:
    src: int
    dst: int
    tokens: int
    delay: int


@dataclasses.dataclass
class McrResult:
    """Throughput bound plus the critical cycle that sets it."""

    throughput: Fraction
    critical_cycle: List[str]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"McrResult({self.throughput}, cycle={self.critical_cycle})"


def _build_slot_graph(low: LoweredSystem):
    """Expand to an event graph; returns (names, arcs, big).

    Nodes are *transitions*: one per shell firing, one per relay-station
    transfer, one per source and sink.  Shell firing is atomic — all of
    a shell's output registers load together — so fan-out siblings are
    correctly coupled through the shared transition.  Each storage
    element becomes a *place* between two transitions, expanded into a
    forward arc (its initial tokens, delay 1) and a reverse
    back-pressure arc (its free capacity, delay 0 or 1 depending on
    whether its stop is combinational or registered).  Places adjacent
    to sources and sinks get unbounded capacity: a source always
    re-supplies and an unscripted sink always consumes, so neither can
    be part of a binding cycle.
    """
    names: List[str] = []
    node_index: Dict[str, int] = {}

    def new_transition(name: str) -> int:
        names.append(name)
        return len(names) - 1

    for node in low.nodes:
        node_index[node.name] = new_transition(node.name)

    # Places: (from_transition, to_transition, tokens, capacity, rev_delay)
    places: List[Tuple[int, int, int, Optional[int], int]] = []

    for edge in low.edges:
        src_node = low.nodes[edge.src]
        dst_node = low.nodes[edge.dst]
        prev = node_index[edge.src_name]
        # The producer's own storage: a shell output register (cap 1,
        # one initial token, combinational stop) or the source's
        # always-full supply (unbounded).
        if src_node.kind == "shell":
            pending = (1, 1, 0)  # tokens, capacity, rev_delay
        else:
            pending = (1, None, 0)
        for pos, spec in enumerate(edge.relays):
            rs = new_transition(
                f"{edge.src_name}->{edge.dst_name}.rs{pos}[{edge.index}]")
            tokens, cap, rev = pending
            places.append((prev, rs, tokens, cap, rev))
            cap2, tokens2, rev2 = _SLOT_PARAMS[spec]
            pending = (tokens2, cap2, rev2)
            prev = rs
        dst = node_index[edge.dst_name]
        tokens, cap, rev = pending
        if dst_node.kind == "sink":
            cap = None  # an unscripted sink always consumes
        places.append((prev, dst, tokens, cap, rev))

    total_delay_budget = sum(1 + rev for (_a, _b, _t, _c, rev) in places) + 2
    big = total_delay_budget + 1

    arcs: List[_Arc] = []
    for a, b, tokens, cap, rev_delay in places:
        free = big if cap is None else cap - tokens
        arcs.append(_Arc(a, b, tokens=tokens, delay=1))
        arcs.append(_Arc(b, a, tokens=free, delay=rev_delay))
    return names, arcs, big


def _has_cycle_below(
    arcs: List[_Arc], n_nodes: int, ratio: Fraction
) -> Optional[List[int]]:
    """Negative-cycle check for weights tokens - ratio*delay (< 0).

    Returns the node list of one offending cycle, or ``None``.
    Bellman–Ford from a virtual super-source with exact arithmetic:
    for ``ratio = p/q`` every weight is scaled by ``q > 0`` to the
    integer ``tokens*q - p*delay``.  Every distance scales by the same
    ``q``, so each comparison, and with it ``pred`` and the walked-out
    cycle, is the one the rational weights give.
    """
    p, q = ratio.numerator, ratio.denominator
    weighted = [(arc.src, arc.dst, arc.tokens * q - p * arc.delay)
                for arc in arcs]
    dist = [0] * n_nodes
    pred: List[Optional[int]] = [None] * n_nodes
    last_relaxed = -1
    for _round in range(n_nodes):
        changed = False
        for src, dst, weight in weighted:
            candidate = dist[src] + weight
            if candidate < dist[dst]:
                dist[dst] = candidate
                pred[dst] = src
                changed = True
                last_relaxed = dst
        if not changed:
            return None
    # A relaxation in round n implies a negative cycle; walk it out.
    node = last_relaxed
    for _ in range(n_nodes):
        node = pred[node]
    cycle = [node]
    cursor = pred[node]
    while cursor != node:
        cycle.append(cursor)
        cursor = pred[cursor]
    cycle.reverse()
    return cycle


def _best_fraction_between(lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    """Fraction with the smallest denominator in the interval [lo, hi).

    Stern–Brocot walk; used to snap the binary search to the exact
    ratio, whose denominator is bounded by the total delay budget.
    """
    a, b, c, d = 0, 1, 1, 0  # interval endpoints 0/1 and 1/0
    for _ in range(64 * (max_den + 2)):
        mediant = Fraction(a + c, b + d)
        if mediant < lo:
            a, b = mediant.numerator, mediant.denominator
        elif mediant >= hi:
            c, d = mediant.numerator, mediant.denominator
        else:
            return mediant
    raise AnalysisError("Stern-Brocot search failed to converge")


def min_cycle_ratio_throughput(graph: SystemGraph) -> McrResult:
    """Static system throughput = min(1, minimum cycle ratio).

    Exact rational arithmetic throughout; the returned critical cycle
    names the storage slots on the binding loop (empty when throughput
    is 1, i.e. no cycle binds).
    """
    low = (graph if isinstance(graph, LoweredSystem)
           else lower(graph)).skeleton_view()
    if not low.single_clock:
        raise AnalysisError(
            f"{low.name}: minimum-cycle-ratio analysis models "
            f"single-clock systems only (capability flags: "
            f"single_clock={low.single_clock}, "
            f"has_bridges={low.has_bridges}) — the marked-graph "
            "expansion has no notion of firing schedules; use "
            "repro.analysis.static_system_throughput for the certified "
            "GALS bound or repro.analysis.simulated_throughput for "
            "exact mixed-rate values")
    names, arcs, big = _build_slot_graph(low)
    n = len(names)
    if not arcs:
        return McrResult(Fraction(1), [])

    total_delay = sum(arc.delay for arc in arcs)
    max_den = max(total_delay, 1)

    # Is any cycle below 1? If not, the protocol runs at full rate.
    if _has_cycle_below(arcs, n, Fraction(1)) is None:
        return McrResult(Fraction(1), [])

    # A zero-token cycle means structural starvation (ratio 0).
    tiny = Fraction(1, (max(total_delay, 1) + 1) ** 3)
    zero_witness = _has_cycle_below(arcs, n, tiny)
    if zero_witness is not None:
        return McrResult(Fraction(0), [names[i] for i in zero_witness])

    lo, hi = Fraction(0), Fraction(1)
    # Binary search until the interval isolates a unique ratio with
    # denominator <= max_den (interval shorter than 1/max_den^2).
    threshold = Fraction(1, max_den * max_den + 1)
    while hi - lo > threshold:
        mid = (lo + hi) / 2
        if _has_cycle_below(arcs, n, mid) is not None:
            hi = mid
        else:
            lo = mid
    ratio = _best_fraction_between(lo, hi, max_den)
    witness = _has_cycle_below(arcs, n, ratio + Fraction(1, max_den ** 3))
    cycle_names = [names[i] for i in witness] if witness else []
    return McrResult(min(ratio, Fraction(1)), cycle_names)
