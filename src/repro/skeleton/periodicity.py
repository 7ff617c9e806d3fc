"""Transient/period extraction: the one periodicity detector.

The paper: *"after a number of clock cycles that are dependent on the
system each part of it behaves in a periodic fashion"* — and the
transient length *"is related to the number of relay stations and
shells, and can be predicted upfront"*.

:func:`detect_period` is the only state-repeat loop of the skeleton
engines: :meth:`SkeletonSim.run <repro.skeleton.sim.SkeletonSim.run>`
and :meth:`BitplaneSkeletonSim.run_to_period
<repro.skeleton.bitsim.BitplaneSkeletonSim.run_to_period>` are both one
:func:`run_to_period` call.  This module also provides the static
upper bound used to decide how long the paper's
simulate-until-transient-extinction deadlock check must run.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PeriodicityTimeout
from ..graph.model import SystemGraph
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant


@dataclasses.dataclass
class SkeletonResult:
    """Outcome of a skeleton run (see :class:`SkeletonSim.run`)."""

    transient: int
    period: int
    shell_fires: Dict[str, int]
    sink_accepts: Dict[str, int]
    cycles_run: int
    deadlocked: bool
    potential_deadlock_cycle: Optional[int]

    @property
    def potential(self) -> bool:
        return self.potential_deadlock_cycle is not None

    def throughput(self, name: str) -> Fraction:
        """Steady-state firings (or acceptances) per cycle for a block."""
        if self.period == 0:
            return Fraction(0)
        if name in self.shell_fires:
            return Fraction(self.shell_fires[name], self.period)
        if name in self.sink_accepts:
            return Fraction(self.sink_accepts[name], self.period)
        raise KeyError(f"no shell or sink named {name!r}")

    def min_shell_throughput(self) -> Fraction:
        if not self.shell_fires or self.period == 0:
            return Fraction(0)
        return min(
            Fraction(f, self.period) for f in self.shell_fires.values()
        )


def periodicity_timeout(name: str, max_cycles: int,
                        instances: Optional[List[int]] = None
                        ) -> PeriodicityTimeout:
    """The error of a run with no periodic regime within *max_cycles*.

    *instances* names the unfinished instances of a wider batch.
    """
    who = name if instances is None else f"{name}: instances {instances}"
    return PeriodicityTimeout(
        f"{who}: no periodicity within {max_cycles} cycles "
        f"(state space larger than expected)",
        graph=name, max_cycles=max_cycles)


def detect_period(sim, max_cycles: int = 100_000) -> List[Tuple[int, int]]:
    """Step *sim* until each instance's state repeats.

    *sim* is a skeleton engine, or anything shaped like one:

    * ``cycle`` — the current cycle;
    * ``step()`` — advance every instance one cycle;
    * ``state_keys(instances)`` — one hashable key per listed instance;
      equal keys of one instance mean equal futures once no poke is
      pending;
    * ``quiet_from`` — per instance, the first cycle after its last
      scheduled poke (0 when it has none); its length is the number of
      instances;
    * ``graph.name`` — for the timeout message.

    Each key is recorded at the cycle it is seen, from the current
    cycle on, so a run started at cycle *c* reports a transient of at
    least *c*.  An instance's keys count only from its ``quiet_from``
    cycle: a poke still to come gives equal keys different futures, so
    no periodic regime is declared before the last poke ends.

    Returns one ``(transient, period)`` per instance: the cycle at which
    the recurring state was first seen and the recurrence interval.
    Raises :class:`~repro.errors.PeriodicityTimeout` when some instance
    has not repeated after *max_cycles* steps.
    """
    quiet = list(sim.quiet_from)
    seen: List[Dict] = [{} for _ in quiet]
    spans: List[Tuple[int, int]] = [(0, 0)] * len(quiet)
    pending = list(range(len(quiet)))
    steps = 0
    while True:
        cycle = sim.cycle
        still = []
        for p, key in zip(pending, sim.state_keys(pending)):
            if cycle < quiet[p]:
                still.append(p)
                continue
            first = seen[p].setdefault(key, cycle)
            if first == cycle:
                still.append(p)
            else:
                spans[p] = (first, cycle - first)
        pending = still
        if not pending:
            return spans
        if steps == max_cycles:
            raise periodicity_timeout(
                sim.graph.name, max_cycles,
                pending if len(quiet) > 1 else None)
        sim.step()
        steps += 1


def run_to_period(sim, max_cycles: int, fire_rows: Sequence[Sequence[int]],
                  accept_rows: Sequence[Sequence[int]],
                  ambiguous: Sequence[List[int]]) -> List[SkeletonResult]:
    """Run *sim* to periodicity (:func:`detect_period`); one result each.

    *fire_rows* and *accept_rows* are the engine's history lists, which
    ``step()`` appends to: row *c* holds cycle *c*'s word per shell
    (per sink), and bit *p* of a word is instance *p*, so a scalar
    engine's row of bools is instance 0.  *ambiguous[p]* lists
    instance *p*'s ambiguous stop-network cycles.  Each result counts
    the firings and acceptances of its instance's periodic window.
    """
    spans = detect_period(sim, max_cycles)
    results = []
    for p, (transient, period) in enumerate(spans):
        fires = fire_rows[transient:transient + period]
        accepts = accept_rows[transient:transient + period]
        shell_fires = {
            name: sum((row[j] >> p) & 1 for row in fires)
            for j, name in enumerate(sim.shell_names)}
        sink_accepts = {
            name: sum((row[j] >> p) & 1 for row in accepts)
            for j, name in enumerate(sim.sink_names)}
        results.append(SkeletonResult(
            transient=transient,
            period=period,
            shell_fires=shell_fires,
            sink_accepts=sink_accepts,
            cycles_run=sim.cycle,
            deadlocked=bool(shell_fires) and not any(shell_fires.values()),
            potential_deadlock_cycle=(ambiguous[p][0] if ambiguous[p]
                                      else None),
        ))
    return results


def transient_and_period(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_cycles: int = 100_000,
    **skeleton_kwargs,
) -> Tuple[int, int]:
    """(transient, period) of a system graph via skeleton simulation."""
    from .sim import SkeletonSim

    sim = SkeletonSim(graph, variant=variant, **skeleton_kwargs)
    result = sim.run(max_cycles=max_cycles)
    return result.transient, result.period


def transient_estimate(graph: SystemGraph) -> int:
    """Tight practical estimate of the transient length.

    Two regimes, both linear in the storage counts the paper names:

    * **trees / pipelines** (no reconvergence, no loops) — the
      transient is the drain time of the voids initially stored along
      the deepest source-to-sink path, bounded by the longest register
      path;
    * **reconvergent or loopy systems** — back-pressure waves bounce
      between the unbalanced branches / around the loops before the
      periodic pattern locks in, bounded by twice the total storage
      (shell registers + both relay-station slots) plus two.

    The estimate dominates every measured transient in the test suite's
    deterministic sweeps (fixed random seeds included); the quadratic
    :func:`transient_bound` remains the conservative guarantee.
    """
    from ..analysis.throughput import reconvergence_pairs
    from ..analysis.transient import longest_register_path
    from ..errors import AnalysisError

    try:
        if not reconvergence_pairs(graph):
            # +1: periodicity is detected one cycle after the last
            # bubble drains (the state-hash match trails the data).
            return longest_register_path(graph) + 1
    except AnalysisError:
        pass
    shells = len(graph.shells())
    slots = sum(
        2 if spec == "full" else 1
        for edge in graph.edges for spec in edge.relays
    )
    return 2 * (shells + slots) + 2


def transient_bound(graph: SystemGraph) -> int:
    """Static upper-bound estimate of the transient length.

    The transient is driven by (a) the voids initially stored in relay
    stations draining toward the outputs and (b) stop waves reflecting
    around loops until the steady pattern locks in.  Both are bounded by
    a small multiple of the total storage in the system; we use

        bound = (R_total + S_total + 2) * (longest_simple_path_factor)

    with the conservative factor ``R_total + S_total + 2`` — i.e. the
    square of the storage count — which the transient bench (EXP-D3)
    shows to dominate every measured transient comfortably while staying
    "predictable upfront" in the paper's sense.
    """
    shells = len(graph.shells())
    relays = graph.relay_count()
    storage = shells + relays + 2
    return storage * storage
