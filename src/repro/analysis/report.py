"""One-shot analysis reports: everything the paper predicts, per system.

:func:`analyze` bundles topology classification, static throughput
(closed formulas and minimum cycle ratio), simulated throughput,
transient, and the liveness verdict into a single dataclass with a
pretty text rendering — the CLI's ``repro-lid analyze`` output.
"""

from __future__ import annotations

import dataclasses
import io
from fractions import Fraction
from typing import Dict, List, Tuple

from ..graph.model import SystemGraph
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .mcr import min_cycle_ratio_throughput
from .throughput import (
    analyze_loops,
    analyze_reconvergence,
    reconvergence_pairs,
    static_system_throughput,
)


@dataclasses.dataclass
class SystemReport:
    """Full static + dynamic characterization of one system graph."""

    name: str
    variant: str
    shells: int
    relays_full: int
    relays_half: int
    topology_class: str
    loops: Dict[Tuple[str, ...], Fraction]
    reconvergences: List[Tuple[str, str, int, int, Fraction]]
    static_throughput: Fraction
    mcr_throughput: Fraction
    critical_cycle: List[str]
    simulated_throughput: Fraction
    transient: int
    period: int
    transient_bound: int
    deadlock_verdict: str

    @property
    def formulas_agree(self) -> bool:
        """Do the static predictions match the simulated throughput?"""
        return self.mcr_throughput == self.simulated_throughput

    def render(self) -> str:
        out = io.StringIO()
        out.write(f"System {self.name!r} [{self.variant} protocol]\n")
        out.write(
            f"  blocks: {self.shells} shells, {self.relays_full} full + "
            f"{self.relays_half} half relay stations\n"
        )
        out.write(f"  topology class: {self.topology_class}\n")
        for cycle, rate in self.loops.items():
            out.write(
                f"  loop {' -> '.join(cycle)}: S/(S+R) = {rate}\n"
            )
        for div, join, i, m, rate in self.reconvergences:
            out.write(
                f"  reconvergence {div} => {join}: i={i}, m={m}, "
                f"(m-i)/m = {rate}\n"
            )
        out.write(
            f"  throughput: formulas={self.static_throughput} "
            f"mcr={self.mcr_throughput} simulated={self.simulated_throughput}"
            f" [{'agree' if self.formulas_agree else 'DISAGREE'}]\n"
        )
        if self.critical_cycle:
            out.write(
                f"  critical cycle: {' -> '.join(self.critical_cycle)}\n"
            )
        out.write(
            f"  transient: {self.transient} cycles (bound "
            f"{self.transient_bound}), period {self.period}\n"
        )
        out.write(f"  liveness: {self.deadlock_verdict}\n")
        return out.getvalue()


def classify(graph: SystemGraph) -> str:
    """Name the paper's topology class this graph belongs to."""
    loops = graph.shell_cycles()
    pairs = reconvergence_pairs(graph)
    if loops and pairs:
        base = "feed-forward combination of self-interacting loops"
    elif loops:
        base = "feedback"
    elif pairs:
        base = "reconvergent feed-forward"
    else:
        base = "tree / pipeline (feed-forward)"
    if not graph.is_single_clock():
        from ..ir import lower

        # The lowering keeps only the domains that actually host nodes.
        return f"GALS ({len(lower(graph).domains)} clock domains) {base}"
    return base


def analyze(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_cycles: int = 50_000,
    *,
    cache=None,
) -> SystemReport:
    """Run every analysis on *graph* and return the combined report.

    The skeleton runs to periodicity once: the simulated throughput,
    transient and period are those of the liveness check's optimistic
    (least-fixpoint) probe, which is the plain unscripted run.  When
    that probe finds no periodic regime within *max_cycles*, this
    raises :class:`~repro.errors.PeriodicityTimeout`.  *cache* is
    forwarded to :func:`repro.skeleton.deadlock.check_deadlock`.
    """
    from ..skeleton.deadlock import check_deadlock
    from ..skeleton.periodicity import periodicity_timeout, transient_bound

    loops = analyze_loops(graph)
    recon: List[Tuple[str, str, int, int, Fraction]] = []
    for div, join in reconvergence_pairs(graph):
        try:
            i, m, rate = analyze_reconvergence(graph, div, join)
        except Exception:
            continue
        recon.append((div, join, i, m, rate))

    if graph.is_single_clock():
        mcr = min_cycle_ratio_throughput(graph)
        mcr_throughput, critical_cycle = mcr.throughput, mcr.critical_cycle
    else:
        # The marked-graph model has no firing schedules; report the
        # certified GALS bound in the MCR slot (exact for feed-forward
        # compositions with bridge depths >= 3, an upper bound otherwise).
        mcr_throughput = static_system_throughput(graph)
        critical_cycle = []
    verdict = check_deadlock(graph, variant=variant, max_cycles=max_cycles,
                             cache=cache)
    result = verdict.optimistic
    if result is None:
        raise periodicity_timeout(graph.name, max_cycles)

    return SystemReport(
        name=graph.name,
        variant=str(variant),
        shells=len(graph.shells()),
        relays_full=graph.relay_count("full"),
        relays_half=(graph.relay_count("half")
                     + graph.relay_count("half-registered")),
        topology_class=classify(graph),
        loops=loops,
        reconvergences=recon,
        static_throughput=static_system_throughput(graph),
        mcr_throughput=mcr_throughput,
        critical_cycle=critical_cycle,
        simulated_throughput=result.min_shell_throughput(),
        transient=result.transient,
        period=result.period,
        transient_bound=transient_bound(graph),
        deadlock_verdict=verdict.detail,
    )
