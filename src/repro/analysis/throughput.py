"""Closed-form throughput formulas from the paper.

Three results, each implemented and cross-validated against skeleton
simulation by the EXP-T benches:

* **Trees** — throughput 1 (every node fires every cycle after the
  transient).
* **Reconvergent feed-forward** — ``T = (m - i)/m`` where ``i`` is the
  relay-station imbalance between the reconvergent branches and ``m`` is
  the total number of relay stations in the implicit loop (closed by
  the short branch's back pressure) plus the number of shells on the
  branch with the most relay stations.  In slot terms, ``m`` counts the
  storage positions around the implicit loop: the relay stations of
  both branches plus the output registers of the shells feeding the
  long branch (divergence node included, join node excluded) — for the
  paper's Figure 1, m = 3 + 2 = 5 and i = 1, giving T = 4/5.
* **Feedback loops** — ``T = S/(S+R)``: at most S valid tokens circulate
  among S+R storage positions.

The general case (arbitrary compositions) is handled by
:mod:`repro.analysis.mcr`; the formulas here are the fast paths and the
paper-faithful statements.

**Mixed-rate (GALS) extension.**  With rational clock domains the
single-clock formulas gain a rate cap: no element can fire faster than
its domain ticks, so system throughput (measured in base-clock cycles)
is bounded by ``min_d rate_d``.  For *feed-forward* GALS compositions
whose bridges all have depth >= 3 the bound is exact (under the default
Casu variant) — the slowest domain drains the bridges feeding it and
back-pressure throttles every faster domain down to it.  Depth 3 is
what that needs: each firing schedule is balanced (any window of ``L``
cycles holds ``floor(L*r)`` or ``ceil(L*r)`` enables), so over any
window the two sides of a crossing can drain at most one token more
than they refill, and a bridge that just blocked a write still holds
``depth - 1`` tokens; ``depth - 1 >= 2`` keeps the slower side fed (and,
symmetrically, unblocked).  That argument covers a single crossing;
longer chains are checked exhaustively for small rate denominators and
by property fuzzing.  **Depth-2 bridges** make ``min_d rate_d`` only an
upper bound: it is often met, but ``rates=3/4+4/5`` with depth 2 runs
at 7/10, not 3/4 — one slot of slack cannot absorb the schedules'
one-token jitter.  A **depth-1 bridge** adds its own certified cap of
1/2: with a single slot, a read (needs occupancy 1) and a write
(needs occupancy 0) can never share a cycle, so transfers strictly
alternate — the bisynchronous analogue of the paper's half-relay
penalty.  For *cyclic* GALS compositions no closed form exists: the
steady state locks onto an alignment of the domain firing schedules
around the loop, producing rates (e.g. 5/18, 13/30) that depend on the
schedule phases, not just on slot counts.
:func:`static_system_throughput` therefore returns the certified upper
bound ``min(min_d rate_d, 1/2 if any depth-1 bridge, min over loops
S/(S+R))`` for GALS graphs, and :func:`simulated_throughput` gives the
exact value the paper's way — by running the cheap skeleton to its
periodic regime.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..graph import digraph
from ..graph.model import SystemGraph
from ..ir import LoweredSystem, lower


def _as_lowered(graph: "SystemGraph | LoweredSystem") -> LoweredSystem:
    """Every analysis entry point accepts a graph or its lowering."""
    return graph if isinstance(graph, LoweredSystem) else lower(graph)


def domain_rate_bound(graph: "SystemGraph | LoweredSystem") -> Fraction:
    """``min_d rate_d`` — the clock-rate cap on system throughput.

    Every shell firing needs its domain enabled, so no sustained rate
    can exceed the slowest domain's rate.  Single-clock systems (no
    declared domains, or all at rate 1) return 1, leaving the
    single-clock formulas unchanged.
    """
    low = _as_lowered(graph)
    if not low.domains:
        return Fraction(1)
    return min(Fraction(d.rate) for d in low.domains)


def loop_throughput(shells: int, relays: int) -> Fraction:
    """T = S/(S+R) for a feedback loop (paper / Carloni DAC'00)."""
    if shells < 1:
        raise AnalysisError("a loop needs at least one shell")
    if relays < 0:
        raise AnalysisError("negative relay count")
    return Fraction(shells, shells + relays)


def reconvergent_throughput(imbalance: int, loop_positions: int) -> Fraction:
    """T = (m - i)/m for a reconvergent feed-forward pair."""
    if loop_positions < 1:
        raise AnalysisError("m must be positive")
    if imbalance < 0 or imbalance > loop_positions:
        raise AnalysisError(f"imbalance {imbalance} out of range for m={loop_positions}")
    return Fraction(loop_positions - imbalance, loop_positions)


def tree_throughput(graph: SystemGraph) -> Fraction:
    """Throughput 1 — after checking the graph really is a tree.

    A tree here means: acyclic and no reconvergence (at most one simple
    path between any ordered node pair).
    """
    low = _as_lowered(graph)
    if not low.is_feedforward():
        raise AnalysisError(f"{low.name} has loops; not a tree")
    if reconvergence_pairs(low):
        raise AnalysisError(f"{low.name} has reconvergent paths; not a tree")
    return Fraction(1)


# -- reconvergence extraction ---------------------------------------------


def reconvergence_pairs(graph: SystemGraph) -> List[Tuple[str, str]]:
    """(divergence, join) node pairs with >= 2 disjoint directed paths.

    Only shells/sources qualify as divergence points and only shells as
    joins (a sink has a single input channel).
    """
    low = _as_lowered(graph)
    succ = low.block_digraph()
    pairs: List[Tuple[str, str]] = []
    for div_node in low.nodes:
        if div_node.kind == "sink":
            continue
        div = div_node.name
        for join_node in low.nodes:
            join = join_node.name
            if join == div or join_node.kind != "shell":
                continue
            if len(low.in_edges(join)) < 2:
                continue
            if len(digraph.node_disjoint_paths(succ, div, join,
                                               limit=2)) >= 2:
                pairs.append((div, join))
    return pairs


def _path_relay_count(low: LoweredSystem, path: Sequence[str]) -> int:
    total = 0
    for a, b in zip(path, path[1:]):
        candidates = [e.relay_count for e in low.edges
                      if e.src_name == a and e.dst_name == b]
        if not candidates:
            raise AnalysisError(f"no edge {a!r}->{b!r} on path")
        total += min(candidates)
    return total


def analyze_reconvergence(
    graph: SystemGraph,
    divergence: str,
    join: str,
) -> Tuple[int, int, Fraction]:
    """Apply the paper's formula to one reconvergent pair.

    Returns ``(i, m, T)``.  The two branches are taken as a pair of
    node-disjoint paths between *divergence* and *join*; with more than
    two branches the extreme pair (most vs fewest relay stations)
    determines the throughput.
    """
    low = _as_lowered(graph)
    paths = digraph.node_disjoint_paths(low.block_digraph(), divergence, join)
    if not paths:
        raise AnalysisError(f"no path {divergence!r} -> {join!r}")
    if len(paths) < 2:
        raise AnalysisError(
            f"{divergence!r} -> {join!r} is not reconvergent "
            f"(only {len(paths)} disjoint path)"
        )
    counted = [( _path_relay_count(low, p), p) for p in paths]
    # Tie-break equal relay counts by path length so the branch with
    # more shells is treated as the long one (m is well defined; T is
    # unaffected since i = 0 on ties).
    counted.sort(key=lambda pair: (pair[0], len(pair[1])))
    short_relays, _short_path = counted[0]
    long_relays, long_path = counted[-1]
    imbalance = long_relays - short_relays
    # Storage positions on the implicit loop: all relay stations of both
    # branches, plus the output registers of the shells feeding the long
    # branch (divergence node included when it is a shell, join excluded).
    shells_on_long = sum(
        1 for name in long_path[:-1] if low.node(name).kind == "shell"
    )
    m = long_relays + short_relays + shells_on_long
    return imbalance, m, reconvergent_throughput(imbalance, m)


def analyze_loops(graph: SystemGraph) -> Dict[Tuple[str, ...], Fraction]:
    """S/(S+R) for every simple cycle of the block graph."""
    low = _as_lowered(graph)
    result: Dict[Tuple[str, ...], Fraction] = {}
    for cycle in low.shell_cycles():
        shells, relays = low.loop_census(cycle)
        result[tuple(cycle)] = loop_throughput(shells, relays)
    return result


def throughput_sweep(
    graph: SystemGraph,
    sink_patterns: Optional[Sequence[Dict[str, Sequence[bool]]]] = None,
    source_patterns: Optional[Sequence[Dict[str, Sequence[bool]]]] = None,
    variant=None,
    max_cycles: int = 10_000,
    backend: str = "auto",
) -> List[Dict[str, Fraction]]:
    """Exact steady-state rates for a whole scenario sweep at once.

    One topology, many environment scripts: each entry of
    *sink_patterns* / *source_patterns* describes one instance of the
    design-space sweep (back-pressure scripts, source availability).
    The simulation runs through :func:`repro.skeleton.backend.select`,
    so a wide sweep costs roughly one scalar run (the paper's
    "absolutely negligible" skeleton cost, bit-parallel); results are
    exact fractions per shell and sink, per instance.
    """
    from ..lid.variant import DEFAULT_VARIANT
    from ..skeleton.backend import select

    handle = select(graph, variant or DEFAULT_VARIANT,
                    source_patterns=source_patterns,
                    sink_patterns=sink_patterns,
                    detect_ambiguity=False, backend=backend)
    sweeps: List[Dict[str, Fraction]] = []
    for result in handle.run(max_cycles=max_cycles):
        rates: Dict[str, Fraction] = {}
        for name, fires in result.shell_fires.items():
            rates[name] = (Fraction(fires, result.period)
                           if result.period else Fraction(0))
        for name, accepts in result.sink_accepts.items():
            rates[name] = (Fraction(accepts, result.period)
                           if result.period else Fraction(0))
        sweeps.append(rates)
    return sweeps


def effective_throughput(
    graph: SystemGraph,
    source_rates: Optional[Dict[str, Fraction]] = None,
    sink_rates: Optional[Dict[str, Fraction]] = None,
) -> Fraction:
    """System throughput under rate-limited endpoints.

    The protocol adapts to whatever is slowest: a source that offers
    tokens at rate p, a sink that accepts at rate q, or the topology's
    own ceiling.  For the single-rate systems of the paper the bound
    composes by min() — verified against skeleton simulation in
    ``tests/analysis/test_throughput.py``.
    """
    bound = static_system_throughput(graph)
    for rate in (source_rates or {}).values():
        bound = min(bound, Fraction(rate))
    for rate in (sink_rates or {}).values():
        bound = min(bound, Fraction(rate))
    return bound


def static_system_throughput(graph: SystemGraph) -> Fraction:
    """Best static estimate from the paper's closed-form results.

    The minimum over all feedback loops and all reconvergent pairs,
    capped at the domain-rate bound (1 for single-clock systems).  (The
    exact general answer — including interactions between
    sub-topologies — comes from :func:`repro.analysis.mcr.
    min_cycle_ratio_throughput`; the paper proves the slowest
    sub-topology dominates, which the EXP-T5 bench verifies.)

    For multi-clock (GALS) graphs the returned value is **exact for
    feed-forward compositions with bridge depths >= 3** (default Casu
    variant) and a **certified upper bound otherwise** — a depth-2
    bridge has too little slack for the schedules' jitter (see the
    module docstring), the S/(S+R) loop term ignores
    firing-schedule alignment and bridge latency, both of which can
    only slow a loop down, and a depth-1 bridge contributes its
    alternation cap of 1/2 (single-slot reads and writes exclude each
    other; schedule misalignment can push the true rate below even
    that).  The reconvergence formula is skipped for GALS graphs for
    the same reason; dropping an upper-bound term keeps the minimum an
    upper bound.  Use :func:`simulated_throughput` for exact mixed-rate
    values.
    """
    low = _as_lowered(graph)
    best = domain_rate_bound(low)
    if any(bridge.depth == 1 for bridge in low.bridges):
        best = min(best, Fraction(1, 2))
    for _cycle, rate in analyze_loops(low).items():
        best = min(best, rate)
    if low.single_clock:
        for div, join in reconvergence_pairs(low):
            try:
                _i, _m, rate = analyze_reconvergence(low, div, join)
            except AnalysisError:
                continue
            best = min(best, rate)
    return best


def simulated_throughput(
    graph: SystemGraph,
    variant=None,
    max_cycles: int = 10_000,
    backend: str = "auto",
) -> Fraction:
    """Exact steady-state system throughput from skeleton simulation.

    Runs the valid/stop skeleton to its periodic regime and returns the
    minimum sustained rate over every shell and sink, as an exact
    fraction of base-clock cycles.  This is the paper's own answer to
    topologies outside the closed forms — and for GALS compositions,
    where loop throughput depends on firing-schedule alignment, it is
    the only exact one.  Always agrees with
    :func:`static_system_throughput` on single-clock systems and on
    feed-forward GALS chains whose bridges have depth >= 3; elsewhere
    on GALS graphs it refines the static upper bound to the true rate.
    """
    rates = throughput_sweep(graph, variant=variant,
                             max_cycles=max_cycles, backend=backend)[0]
    if not rates:
        raise AnalysisError(f"{graph.name}: no shells or sinks to rate")
    return min(rates.values())
