"""Deadlock checking via skeleton simulation.

The paper's liveness strategy: liveness is topology dependent, so
instead of verifying the protocol globally, *"simulate the system up to
the transient's extinction; either the deadlock will show, or will be
forever avoided"* — on the cheap valid/stop skeleton.

Two failure modes are distinguished:

* **hard deadlock** — under the optimistic (least-fixpoint) resolution
  of the stop network, the periodic regime contains zero shell firings:
  no block will ever fire again;
* **potential deadlock** — the stop equations admit more than one
  fixpoint in some reachable cycle (only possible when a combinational
  stop cycle exists, i.e. half relay stations — or direct shell-shell
  wires — on loops), or the pessimistic (greatest-fixpoint) resolution
  stalls even though the optimistic one runs.  Real gates could settle
  either way, so the design is hazardous: this is the paper's
  *"potential deadlocks iff half relay stations are present in loops"*.

Because simulation runs until state periodicity, the verdict is exact
for the given source/sink scripts — the paper's "forever avoided"
guarantee.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

from ..errors import PeriodicityTimeout
from ..graph.model import SystemGraph
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .sim import SkeletonResult, SkeletonSim


@dataclasses.dataclass
class DeadlockVerdict:
    """Outcome of :func:`check_deadlock`.

    ``inconclusive`` marks a run whose cycle budget expired before the
    skeleton state became periodic: nothing can be said about liveness
    either way (``optimistic`` is then ``None`` and ``transient`` /
    ``period`` are ``-1`` / ``0``).  Raise ``max_cycles`` to resolve it.
    """

    deadlocked: bool
    potential: bool
    transient: int
    period: int
    detail: str
    optimistic: Optional[SkeletonResult] = None
    pessimistic: Optional[SkeletonResult] = None
    inconclusive: bool = False

    @property
    def live(self) -> bool:
        """Fully live: neither hard nor potential deadlock was proven.

        An inconclusive verdict is *not* live: the check never reached
        the periodic regime that would justify the paper's "forever
        avoided" claim.
        """
        return (not self.deadlocked and not self.potential
                and not self.inconclusive)


def _probe(sim: SkeletonSim, max_cycles: int, telemetry,
           name: str) -> Optional[SkeletonResult]:
    """Run one fixpoint probe to periodicity; ``None`` on a timeout.

    With metrics-carrying *telemetry*, the probe's snapshot is folded
    into the caller's registry under its own ``deadlock/<name>/``
    namespace, so the optimistic and pessimistic passes never
    double-count each other's skeleton counters.
    """
    try:
        result = sim.run(max_cycles=max_cycles)
    except PeriodicityTimeout:
        result = None
    if telemetry is not None and telemetry.metrics is not None:
        telemetry.metrics.merge_snapshot(
            {f"deadlock/{name}/{metric}": record
             for metric, record in sim.metrics_snapshot().items()})
    return result


def _pattern_key(patterns) -> tuple:
    return tuple(sorted(
        (name, tuple(bool(b) for b in bits))
        for name, bits in (patterns or {}).items()
    ))


def check_deadlock(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_cycles: int = 10_000,
    source_patterns: Optional[Dict[str, Sequence[bool]]] = None,
    sink_patterns: Optional[Dict[str, Sequence[bool]]] = None,
    *,
    cache=None,
    telemetry=None,
) -> DeadlockVerdict:
    """Simulate the skeleton until periodicity and classify liveness.

    When no periodic regime appears within *max_cycles* the verdict is
    ``inconclusive`` (not a raised :class:`TimeoutError`): callers get a
    one-line diagnostic in ``detail`` and can retry with a larger
    budget.

    *telemetry* (a :class:`repro.obs.Telemetry`) instruments the
    probes.  *cache* (a :class:`repro.exec.ResultCache`) memoises the
    whole verdict keyed on graph fingerprint, variant, cycle budget and
    script patterns.

    Each probe is one scalar :class:`SkeletonSim` run to periodicity:
    a one-shot check has nothing to amortize a compiled plan over.  The
    pessimistic probe runs only when the stop network may be ambiguous
    (a static topology property) and the optimistic one does not
    deadlock.
    """
    from ..exec import graph_fingerprint

    key = None
    if cache is not None:
        key = cache.key(
            "deadlock", graph_fingerprint(graph), variant, max_cycles,
            _pattern_key(source_patterns), _pattern_key(sink_patterns))
        hit = cache.get(key)
        if isinstance(hit, DeadlockVerdict):
            return hit

    def _done(verdict: DeadlockVerdict) -> DeadlockVerdict:
        if cache is not None:
            cache.put(key, verdict)
        return verdict

    def _sim(fixpoint: str) -> SkeletonSim:
        return SkeletonSim(graph, variant=variant, fixpoint=fixpoint,
                           source_patterns=source_patterns,
                           sink_patterns=sink_patterns,
                           telemetry=telemetry)

    optimistic_sim = _sim("least")
    optimistic = _probe(optimistic_sim, max_cycles, telemetry,
                        "optimistic")
    if optimistic is None:
        return _done(DeadlockVerdict(
            deadlocked=False,
            potential=False,
            transient=-1,
            period=0,
            detail=(
                f"inconclusive: no periodic regime within {max_cycles} "
                f"cycles — raise --max-cycles to let the transient "
                f"extinguish"
            ),
            inconclusive=True,
        ))

    potential = optimistic.potential
    pessimistic = None
    detail = ""
    if optimistic.deadlocked:
        detail = (
            f"hard deadlock: periodic window of {optimistic.period} cycles "
            f"after cycle {optimistic.transient} contains no shell firing"
        )
    elif potential:
        detail = (
            f"stop network ambiguous from cycle "
            f"{optimistic.potential_deadlock_cycle}: least and greatest "
            f"fixpoints disagree (combinational stop cycle is active)"
        )
    if optimistic_sim._may_be_ambiguous and not optimistic.deadlocked:
        pessimistic = _probe(_sim("greatest"), max_cycles, telemetry,
                             "pessimistic")
        if pessimistic is None:
            return _done(DeadlockVerdict(
                deadlocked=False,
                potential=potential,
                transient=optimistic.transient,
                period=optimistic.period,
                detail=(
                    f"inconclusive: pessimistic stop resolution found no "
                    f"periodic regime within {max_cycles} cycles"
                ),
                optimistic=optimistic,
                inconclusive=True,
            ))
        if pessimistic.deadlocked and not potential:
            potential = True
            detail = (
                "pessimistic stop resolution deadlocks although the "
                "optimistic one runs: hazardous combinational stop cycle"
            )

    return _done(DeadlockVerdict(
        deadlocked=optimistic.deadlocked,
        potential=potential,
        transient=optimistic.transient,
        period=optimistic.period,
        detail=detail or "live: periodic regime fires every shell",
        optimistic=optimistic,
        pessimistic=pessimistic,
    ))


def is_deadlock_free_class(graph: SystemGraph) -> Optional[str]:
    """Static sufficient conditions for deadlock freedom (paper's list).

    Returns the name of the first matching rule, or ``None`` when no
    static rule applies (the system then needs the skeleton check):

    * ``"feed-forward"`` — the block graph is acyclic (possibly with
      reconvergence);
    * ``"all-full-relay-stations"`` — every relay station is full.
    """
    if graph.is_feedforward():
        return "feed-forward"
    if graph.relay_count() == graph.relay_count("full"):
        return "all-full-relay-stations"
    from .. import graph as _graph_pkg  # local import to avoid a cycle

    if not _graph_pkg.half_relays_on_loops(graph):
        return "no-half-relay-stations-on-loops"
    return None
