"""Experiment runner: regenerates every paper artifact as a text table.

Each ``run_*`` function reproduces one experiment from DESIGN.md §5 and
returns ``(table_text, rows)``; ``run_all`` executes the whole campaign
(this is what ``repro-lid reproduce`` and the EXPERIMENTS.md refresh
use).  The pytest-benchmark files in ``benchmarks/`` wrap these same
functions for timing.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..analysis import (
    analyze_reconvergence,
    first_full_speed_cycle,
    longest_register_path,
    min_cycle_ratio_throughput,
)
from ..graph import equalize, figure1, imbalance, promote_half_relays
from ..lid.variant import ProtocolVariant
from ..skeleton import (
    SkeletonSim,
    check_deadlock,
    compare_cost,
    system_throughput,
    transient_and_period,
    transient_bound,
)
from . import workloads
from .tables import format_table

Rows = List[Sequence[Any]]


def run_figure1(cycles: int = 40) -> Tuple[str, Rows]:
    """EXP-F1: the cycle-by-cycle evolution of the paper's Figure 1."""
    graph = workloads.figure1_workload()
    sim = SkeletonSim(graph)
    rows: Rows = []
    out_idx = sim.sink_names.index("out")
    shell_idx = {name: i for i, name in enumerate(sim.shell_names)}
    for cycle in range(cycles):
        # The unscripted sink never stops: it accepts exactly the
        # cycles on which its input is valid.
        fires, accepts = sim.step()
        rows.append((
            cycle,
            *(int(fires[shell_idx[n]]) for n in ("A", "B0", "C")),
            "d" if accepts[out_idx] else "N",
        ))
    result_sim = SkeletonSim(graph)
    result = result_sim.run()
    throughput = result.throughput("out")
    i, m, predicted = analyze_reconvergence(graph, "A", "C")
    table = format_table(
        ("cycle", "A fires", "B fires", "C fires", "out"),
        rows,
        title=(
            f"Figure 1 evolution: i={i}, m={m}, predicted T={predicted}, "
            f"simulated T={throughput}, period={result.period}"
        ),
    )

    # Token-level trace, matching the figure's rendering: the paper
    # draws consecutive token indices flowing through A, B and C, with
    # "N"s for voids.  A forwarding join makes the indices visible.
    from ..graph.topologies import reconvergent
    from ..pearls.base import FunctionPearl

    token_graph = reconvergent(
        join_factory=lambda: FunctionPearl(
            lambda a, b: a, inputs=("a", "b"), initial=0))
    system = token_graph.elaborate()
    system.finalize()
    watch = []
    for channel in system.channels:
        if channel.producer in ("A", "B0", "C") \
                and channel.consumer != "out":
            watch.append(channel)
    watch.append(next(c for c in system.channels
                      if c.consumer == "out"))
    trace = system.trace_channels(watch)
    system.run(min(cycles, 24))
    token_rows: Rows = []
    for cycle in trace.cycles:
        row = trace.row(cycle)
        cells = []
        for channel in watch:
            valid = row[channel.valid.name]
            cells.append(str(row[channel.data.name]) if valid else "N")
        token_rows.append((cycle, *cells))
    labels = [channel.name.split("#")[0] for channel in watch]
    token_table = format_table(
        ("cycle", *labels),
        token_rows,
        title="Figure 1 token flow (paper rendering: indices and N's)",
    )
    return table + "\n\n" + token_table, rows


def run_figure2(max_relays: int = 4,
                evolution_cycles: int = 12) -> Tuple[str, Rows]:
    """EXP-F2: the Figure 2 feedback loop.

    Regenerates both the figure's cycle-by-cycle evolution (the valid
    tokens circulating between shells A and B) and the S/(S+R) sweep.
    """
    # Evolution of the figure's own instance (S=2, R=2).
    graph = workloads.figure2_workload(1)
    sim = SkeletonSim(graph)
    evolution: Rows = []
    for cycle in range(evolution_cycles):
        a_out = "d" if sim.shell_reg[0] else "N"
        b_out = "d" if sim.shell_reg[1] else "N"
        stations = "".join("d" if m else "N" for m in sim.rs_main)
        fires, _accepts = sim.step()
        evolution.append((cycle, a_out, stations[0], b_out, stations[1],
                          int(fires[0]), int(fires[1])))
    evo_table = format_table(
        ("cycle", "A.out", "rs(A->B)", "B.out", "rs(B->A)",
         "A fires", "B fires"),
        evolution,
        title="Figure 2 evolution (S=2, R=2): two tokens chase each "
              "other around four positions -> T = 1/2",
    )

    rows: Rows = []
    for relays_per_arc in range(1, max_relays + 1):
        graph = workloads.figure2_workload(relays_per_arc)
        shells, total_relays = 2, 2 * relays_per_arc
        predicted = Fraction(shells, shells + total_relays)
        measured = system_throughput(graph)
        transient, period = transient_and_period(graph)
        rows.append((shells, total_relays, str(predicted), str(measured),
                     predicted == measured, transient, period))
    sweep_table = format_table(
        ("S", "R", "S/(S+R)", "simulated", "match", "transient", "period"),
        rows,
        title="Figure 2: feedback-loop throughput",
    )
    return evo_table + "\n\n" + sweep_table, rows


def run_tree() -> Tuple[str, Rows]:
    """EXP-T1: trees reach T=1 after a transient <= longest path."""
    rows: Rows = []
    for depth, relays, graph in workloads.tree_sweep():
        measured = system_throughput(graph)
        longest = longest_register_path(graph)
        full_speed = first_full_speed_cycle(graph)
        rows.append((graph.name, depth, relays, str(measured),
                     full_speed, longest, full_speed <= longest))
    table = format_table(
        ("tree", "depth", "rs/hop", "throughput", "full-speed@",
         "longest path", "within bound"),
        rows,
        title="Trees: T=1, initial latency bounded by the longest path",
    )
    return table, rows


def run_reconvergent() -> Tuple[str, Rows]:
    """EXP-T2: the (m-i)/m formula across imbalances."""
    rows: Rows = []
    for i, m, graph in workloads.reconvergent_sweep():
        predicted = Fraction(m - i, m)
        measured = system_throughput(graph)
        mcr = min_cycle_ratio_throughput(graph).throughput
        rows.append((graph.name, i, m, str(predicted), str(mcr),
                     str(measured), predicted == measured == mcr))
    table = format_table(
        ("system", "i", "m", "(m-i)/m", "mcr", "simulated", "agree"),
        rows,
        title="Reconvergent feed-forward: T=(m-i)/m",
    )
    return table, rows


def run_equalization() -> Tuple[str, Rows]:
    """EXP-T3: path equalization restores T=1."""
    rows: Rows = []
    for i, m, graph in workloads.reconvergent_sweep():
        before = system_throughput(graph)
        balanced = equalize(graph)
        spare = imbalance(graph)
        after = system_throughput(balanced)
        rows.append((graph.name, str(before), spare, str(after),
                     after == Fraction(1)))
    table = format_table(
        ("system", "before", "spare RS added", "after", "reaches 1"),
        rows,
        title="Path equalization",
    )
    return table, rows


def run_loop_formula() -> Tuple[str, Rows]:
    """EXP-T4: the S/(S+R) sweep."""
    rows: Rows = []
    for shells, relays, graph in workloads.ring_sweep():
        predicted = Fraction(shells, shells + relays)
        measured = system_throughput(graph)
        rows.append((graph.name, shells, relays, str(predicted),
                     str(measured), predicted == measured))
    table = format_table(
        ("system", "S", "R", "S/(S+R)", "simulated", "match"),
        rows,
        title="Feedback loops: T=S/(S+R)",
    )
    return table, rows


def run_composition() -> Tuple[str, Rows]:
    """EXP-T5: slowest sub-topology dominates, without equalization."""
    rows: Rows = []
    for label, graph in workloads.composition_cases():
        mcr = min_cycle_ratio_throughput(graph)
        measured = system_throughput(graph)
        rows.append((label, str(mcr.throughput), str(measured),
                     mcr.throughput == measured))
    table = format_table(
        ("composition", "slowest sub-topology (mcr)", "simulated", "match"),
        rows,
        title="Composed topologies: the slowest loop sets the pace",
    )
    return table, rows


def run_variant_speedup(cycles: int = 200) -> Tuple[str, Rows]:
    """EXP-T6: tokens delivered, refined vs original protocol."""
    from ..graph import pipeline, reconvergent

    scenarios: List[Tuple[str, Any, Dict, Dict]] = []
    bp = {"out": workloads.SINK_PATTERNS["heavy"]}
    gap = {"src": workloads.SOURCE_PATTERNS["gappy"]}
    g1 = reconvergent(long_relays=(2, 1), short_relays=1)
    scenarios.append(("reconvergent + bursty source + back pressure",
                      g1, gap, bp))
    g2 = pipeline(3, relays_per_hop=1)
    for edge in g2.edges:
        if edge.relays:
            edge.relays = ("half",) * len(edge.relays)
    scenarios.append(("half-RS pipeline + back pressure", g2, {}, bp))
    g3 = workloads.figure1_workload()
    scenarios.append(("figure 1 + back pressure", g3, {},
                      {"out": workloads.SINK_PATTERNS["light"]}))

    rows: Rows = []
    for label, graph, sources, sinks in scenarios:
        counts = {}
        for variant in (ProtocolVariant.CARLONI, ProtocolVariant.CASU):
            sim = SkeletonSim(graph, variant=variant,
                              source_patterns=sources, sink_patterns=sinks,
                              detect_ambiguity=False)
            total = 0
            for _ in range(cycles):
                _fires, accepts = sim.step()
                total += sum(accepts)
            counts[variant] = total
        carloni = counts[ProtocolVariant.CARLONI]
        casu = counts[ProtocolVariant.CASU]
        speedup = casu / carloni if carloni else float("inf")
        rows.append((label, carloni, casu, f"{speedup:.2f}x"))
    table = format_table(
        ("scenario", "original (tokens)", "refined (tokens)", "speedup"),
        rows,
        title=f"Protocol variant: tokens delivered in {cycles} cycles",
    )

    # Steady-state divergence (a reproduction finding): on multi-level
    # reconvergence the imbalance regenerates voids every period and
    # the original discipline keeps re-freezing them, so the ASYMPTOTIC
    # rates differ — no scripts involved.
    from ..graph import random_dag

    steady_rows: Rows = []
    witness = random_dag(22, shells=5)
    for variant in (ProtocolVariant.CARLONI, ProtocolVariant.CASU):
        rate = system_throughput(witness, variant=variant)
        steady_rows.append((witness.name, str(variant), str(rate)))
    steady_table = format_table(
        ("system", "variant", "steady-state throughput"),
        steady_rows,
        title="Steady-state divergence on multi-level reconvergence "
              "(no back-pressure scripts; the speedup can be "
              "asymptotic)",
    )
    return table + "\n\n" + steady_table, rows


def run_stop_locality(cycles: int = 300) -> Tuple[str, Rows]:
    """EXP-T7: stop-wire activity, refined vs original protocol.

    The paper claims the refinement ensures "higher locality of
    management of void/stop signals": stop waves stay near their cause
    instead of spreading over void channels.  We count asserted stop
    wires per cycle (and the fraction landing on voids) on identical
    workloads.
    """
    from ..graph import pipeline, reconvergent, tree

    bp = {"out": workloads.SINK_PATTERNS["heavy"]}
    gap = {"src": workloads.SOURCE_PATTERNS["gappy"]}
    scenarios = [
        ("figure 1 + back pressure", workloads.figure1_workload(),
         gap, bp),
        ("tree d3 + back pressure", tree(3), None, bp),
        ("deep pipeline + back pressure",
         pipeline(4, relays_per_hop=2), gap, bp),
        ("reconvergent + back pressure",
         reconvergent(long_relays=(2, 1), short_relays=1), gap, bp),
    ]
    rows: Rows = []
    for label, graph, sources, sinks in scenarios:
        stats = {}
        for variant in (ProtocolVariant.CARLONI, ProtocolVariant.CASU):
            if sinks and "out" not in {n.name for n in graph.sinks()}:
                sinks = {graph.sinks()[0].name: list(sinks.values())[0]}
            sim = SkeletonSim(graph, variant=variant,
                              source_patterns=sources,
                              sink_patterns=sinks,
                              detect_ambiguity=False)
            for _ in range(cycles):
                sim.step()
            stats[variant] = (sim.stop_assertions_total,
                              sim.internal_stops_on_voids_total)
        old_total, old_void = stats[ProtocolVariant.CARLONI]
        new_total, new_void = stats[ProtocolVariant.CASU]
        rows.append((label, old_total, old_void, new_total, new_void))
    table = format_table(
        ("scenario", "original stops", "...on voids (internal)",
         "refined stops", "...on voids (internal)"),
        rows,
        title=f"Stop-wire activity over {cycles} cycles "
              f"(locality of void/stop management; internal = "
              f"protocol-generated, excluding scripted sink stops)",
    )
    return table, rows


def run_verification() -> Tuple[str, Rows]:
    """EXP-V1: the safety-property table."""
    from ..verify import results_table, verify_all

    results = verify_all()
    rows: Rows = [
        (r.block, r.prop, "PASS" if r.holds else "FAIL", r.states_explored)
        for r in results
    ]
    return results_table(results), rows


def run_deadlock_study() -> Tuple[str, Rows]:
    """EXP-D1: liveness by topology class, both protocol variants."""
    rows: Rows = []
    for family, expectation, graph in workloads.deadlock_suite():
        for variant in (ProtocolVariant.CASU, ProtocolVariant.CARLONI):
            verdict = check_deadlock(graph, variant=variant)
            status = ("deadlock" if verdict.deadlocked
                      else "potential" if verdict.potential else "live")
            rows.append((graph.name, family, str(variant), expectation,
                         status))
    table = format_table(
        ("system", "class", "variant", "static class", "skeleton verdict"),
        rows,
        title="Deadlock study (simulate to transient extinction)",
    )
    return table, rows


def run_skeleton_cost(cycles: int = 1500) -> Tuple[str, Rows]:
    """EXP-D2: skeleton-vs-full simulation cost."""
    rows: Rows = []
    for graph in workloads.pipeline_scaling():
        comparison = compare_cost(graph, cycles=cycles)
        rows.append((
            graph.name,
            cycles,
            f"{comparison.skeleton_seconds * 1e3:.1f} ms",
            f"{comparison.full_seconds * 1e3:.1f} ms",
            f"{comparison.speedup:.1f}x",
        ))
    table = format_table(
        ("system", "cycles", "skeleton", "full sim", "skeleton speedup"),
        rows,
        title="Skeleton simulation cost (paper: 'absolutely negligible')",
    )
    return table, rows


def run_transients() -> Tuple[str, Rows]:
    """EXP-D3: measured transients vs the predicted-upfront figures."""
    from ..skeleton import transient_estimate

    rows: Rows = []
    graphs = [g for _d, _r, g in workloads.tree_sweep()]
    graphs += [g for _s, _r, g in workloads.ring_sweep()[:6]]
    graphs += [g for _i, _m, g in workloads.reconvergent_sweep()[:4]]
    for graph in graphs:
        transient, period = transient_and_period(graph)
        estimate = transient_estimate(graph)
        bound = transient_bound(graph)
        rows.append((graph.name, transient, period, estimate, bound,
                     transient <= estimate <= bound))
    table = format_table(
        ("system", "transient", "period", "linear estimate",
         "quadratic bound", "ordered"),
        rows,
        title="Transient lengths: measured vs predicted-upfront "
              "(linear estimate, conservative quadratic bound)",
    )
    return table, rows


def run_exhaustive_liveness() -> Tuple[str, Rows]:
    """EXP-D1b: liveness proved over all environments (extension)."""
    from ..graph import figure1, figure2, pipeline, ring, self_loop
    from ..verify import verify_system_liveness

    cases = [
        ("pipeline3", pipeline(3)),
        ("figure1", figure1()),
        ("figure2", figure2()),
        ("ring3", ring(3, relays_per_arc=1)),
        ("self_loop", self_loop(relays=2)),
        ("ring_half_full", ring(2, relays_per_arc=[["half"], ["full"]])),
        ("ring_all_half", ring(2, relays_per_arc=[["half"], ["half"]])),
    ]
    rows: Rows = []
    for name, graph in cases:
        for variant in (ProtocolVariant.CASU, ProtocolVariant.CARLONI):
            result = verify_system_liveness(graph, variant=variant)
            rows.append((
                name, str(variant),
                "LIVE (proved)" if result.live else "STUCK STATE",
                result.reachable_states,
                result.ambiguous_states,
            ))
    table = format_table(
        ("system", "variant", "verdict", "states", "ambiguous"),
        rows,
        title="Exhaustive liveness over all environments "
              "(ambiguous = reachable states with multiple stop "
              "fixpoints: the paper's 'potential deadlock')",
    )
    return table, rows


def run_cure() -> Tuple[str, Rows]:
    """EXP-C1: curing hazardous systems by promoting half relays."""
    rows: Rows = []
    for family, expectation, graph in workloads.deadlock_suite():
        if expectation != "hazard":
            continue
        before = check_deadlock(graph, variant=ProtocolVariant.CARLONI)
        cured = promote_half_relays(graph, only_loops=True)
        after = check_deadlock(cured, variant=ProtocolVariant.CARLONI)
        promoted = (graph.relay_count("half")
                    - cured.relay_count("half"))
        rows.append((
            graph.name,
            "deadlock" if before.deadlocked else "potential"
            if before.potential else "live",
            promoted,
            "deadlock" if after.deadlocked else "potential"
            if after.potential else "live",
        ))
    table = format_table(
        ("system", "before", "half RS promoted", "after"),
        rows,
        title="Cure: substituting few relay stations (half -> full)",
    )
    return table, rows


def run_memory_placement(cycles: int = 200) -> Tuple[str, Rows]:
    """EXP-A1: the memory-placement ablation (extension)."""
    from .. import LidSystem
    from ..pearls.arithmetic import Identity
    from ..rtl import full_relay_station_netlist, half_relay_station_netlist

    def build(style: str, stages: int = 3):
        system = LidSystem(style)
        src = system.add_source("src")
        shells = []
        for index in range(stages):
            pearl = Identity(initial=-1 - index)
            if style == "queued":
                shells.append(system.add_queued_shell(f"S{index}", pearl))
            else:
                shells.append(system.add_shell(f"S{index}", pearl))
        sink = system.add_sink("out", stop_script=lambda c: c % 4 == 1)
        system.connect(src, shells[0])
        for a, b in zip(shells, shells[1:]):
            if style == "full-rs":
                system.connect(a, b, relays=1)
            elif style == "half-rs":
                system.connect(a, b, relays=["half"])
            else:
                system.connect(a, b)
        system.connect(shells[-1], sink)
        return system, sink

    def fabric_bits(style: str, stages: int = 3, width: int = 8) -> int:
        hops = stages - 1
        if style == "full-rs":
            return hops * full_relay_station_netlist(
                width).register_count()
        if style == "half-rs":
            return hops * half_relay_station_netlist(
                width).register_count()
        return hops * (2 * width + 3)

    rows: Rows = []
    for style in ("full-rs", "half-rs", "queued"):
        system, sink = build(style)
        system.run(cycles)
        rows.append((style, fabric_bits(style),
                     f"{sink.steady_throughput(20, cycles):.3f}",
                     len(sink.payloads)))
    table = format_table(
        ("fabric style", "register bits (fabric)", "throughput",
         f"tokens in {cycles} cycles"),
        rows,
        title="Memory placement ablation: relay stations vs shell "
              "queues (sink stops 1 in 4)",
    )
    return table, rows


def run_floorplan() -> Tuple[str, Rows]:
    """EXP-A2: floorplan-driven relay insertion (extension)."""
    from ..graph import Placement, apply_floorplan, figure2

    rows: Rows = []
    graph = figure2()
    for distance in (1, 2, 4, 8):
        placement = Placement({
            "S0": (0, 0), "S1": (distance, 0), "out": (distance + 1, 0),
        })
        report = apply_floorplan(graph, placement, reach=1.0)
        rows.append((distance, report.graph.relay_count(),
                     str(report.throughput)))
    table = format_table(
        ("loop span (grid units)", "relay stations", "throughput"),
        rows,
        title="Floorplanning a feedback loop: S/(S+R) prices every "
              "unit of wire",
    )
    return table, rows


#: Experiment registry: id -> (description, runner).
EXPERIMENTS: Dict[str, Tuple[str, Callable[[], Tuple[str, Rows]]]] = {
    "EXP-F1": ("Figure 1 feed-forward evolution", run_figure1),
    "EXP-F2": ("Figure 2 feedback evolution", run_figure2),
    "EXP-T1": ("Tree throughput and transient", run_tree),
    "EXP-T2": ("Reconvergent formula (m-i)/m", run_reconvergent),
    "EXP-T3": ("Path equalization", run_equalization),
    "EXP-T4": ("Loop formula S/(S+R)", run_loop_formula),
    "EXP-T5": ("Composition: slowest wins", run_composition),
    "EXP-T6": ("Variant speedup", run_variant_speedup),
    "EXP-T7": ("Stop/void locality", run_stop_locality),
    "EXP-V1": ("Safety verification", run_verification),
    "EXP-D1": ("Deadlock study", run_deadlock_study),
    "EXP-D1b": ("Exhaustive liveness (extension)",
                run_exhaustive_liveness),
    "EXP-D2": ("Skeleton cost", run_skeleton_cost),
    "EXP-D3": ("Transient prediction", run_transients),
    "EXP-C1": ("Deadlock cure", run_cure),
    "EXP-A1": ("Memory placement ablation (extension)",
               run_memory_placement),
    "EXP-A2": ("Floorplan-driven relay insertion (extension)",
               run_floorplan),
}


def run_all() -> str:
    """Run the entire campaign; returns the concatenated tables."""
    chunks: List[str] = []
    for exp_id, (description, runner) in EXPERIMENTS.items():
        table, _rows = runner()
        chunks.append(f"[{exp_id}] {description}\n\n{table}\n")
    return "\n".join(chunks)


#: Version tag stamped into every machine-readable bench record.
BENCH_RECORD_SCHEMA = "repro-bench-record/v1"


@functools.lru_cache(maxsize=None)
def git_rev() -> str:
    """Short git revision of the loaded code, or ``"unknown"``.

    Resolved once per process: every CLI call, cache key and ledger
    record reuses it, and a long-running ``serve`` keeps stamping the
    revision it started from rather than whatever HEAD later becomes.
    """
    import os
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        rev = proc.stdout.strip()
        return rev if proc.returncode == 0 and rev else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def experiment_record(
    exp_id: str,
    *,
    wall_seconds: float = None,
    rows: Rows = None,
    params: Dict[str, Any] = None,
    counters: Dict[str, Any] = None,
) -> Dict[str, Any]:
    """Machine-readable record for one experiment run.

    The schema is the contract for ``BENCH_*.json`` files written next
    to the text tables: bench id, free-form parameters, wall time,
    counters and the git revision that produced them.
    """
    merged_counters: Dict[str, Any] = dict(counters or {})
    if rows is not None:
        merged_counters.setdefault("rows", len(rows))
    description = ""
    if exp_id in EXPERIMENTS:
        description = EXPERIMENTS[exp_id][0]
    return {
        "schema": BENCH_RECORD_SCHEMA,
        "bench": exp_id,
        "description": description,
        "params": dict(params or {}),
        "wall_seconds": wall_seconds,
        "counters": merged_counters,
        "git_rev": git_rev(),
    }


def write_record(directory: str, record: Dict[str, Any]) -> str:
    """Write one ``BENCH_<id>.json`` record atomically; returns the path.

    A reader (a dashboard polling the directory, a CI artifact
    collector) sees the previous complete file or the new one, never a
    truncated record, even if the writer dies mid-write.
    """
    import json
    import os

    from ..exec import atomic_write_bytes

    path = os.path.join(directory, f"BENCH_{record['bench']}.json")
    atomic_write_bytes(path, (json.dumps(record, indent=2, sort_keys=True)
                              + "\n").encode("utf-8"))
    return path


def read_records(directory: str) -> List[Dict[str, Any]]:
    """Load every ``BENCH_*.json`` record in *directory*, sorted by id.

    Unparsable or wrong-schema files are skipped with a warning on
    stderr rather than aborting the whole read: one corrupt record (a
    partial write from a crashed run predating atomic writes, a stray
    file) must not take down a dashboard aggregating hundreds.
    """
    import glob
    import json
    import os
    import sys

    records: List[Dict[str, Any]] = []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"warning: skipping unreadable bench record {path}: "
                  f"{exc}", file=sys.stderr)
            continue
        if not isinstance(record, dict) \
                or record.get("schema") != BENCH_RECORD_SCHEMA:
            print(f"warning: skipping {path}: not a "
                  f"{BENCH_RECORD_SCHEMA} record", file=sys.stderr)
            continue
        records.append(record)
    return records


def _run_experiment(exp_id: str) -> Tuple[str, str, list, float]:
    """Run one registered experiment; module-level so workers only
    need the experiment id (the registry is re-imported per process)."""
    from time import perf_counter

    _description, runner = EXPERIMENTS[exp_id]
    started = perf_counter()
    table, rows = runner()
    return exp_id, table, rows, perf_counter() - started


def write_results(directory: str, jobs: int = 1, *,
                  ledger: str = None, progress=None) -> List[str]:
    """Run every experiment, writing one table file per id.

    Each experiment also gets a machine-readable ``BENCH_<id>.json``
    sibling (schema :data:`BENCH_RECORD_SCHEMA`).  Returns the paths
    written.  This is what ``repro-lid reproduce --output DIR`` uses;
    the text files match the format of the pinned golden campaign
    (``tests/golden/campaign.txt``).

    ``jobs > 1`` fans independent experiments across worker processes;
    files are still written in registry order by this process, so the
    tables and rows are identical to a serial run (wall times in the
    JSON records are measured per experiment and vary either way).

    *ledger* appends one ``repro-obs-ledger/v1`` record per experiment
    to that JSONL path (kind ``bench``, row count in the verdict, wall
    time in the non-canonical meta); *progress* (a
    :class:`repro.obs.ProgressReporter`) tracks experiment completion.
    """
    import os

    from ..exec import atomic_write_bytes, map_deterministic

    os.makedirs(directory, exist_ok=True)
    experiment_ids = list(EXPERIMENTS)
    if progress is not None:
        progress.set_total(len(experiment_ids))
    outcomes = map_deterministic(
        _run_experiment, experiment_ids, jobs=jobs, progress=progress)
    if progress is not None:
        progress.finish()
    paths: List[str] = []
    for exp_id, table, rows, wall in outcomes:
        description = EXPERIMENTS[exp_id][0]
        path = os.path.join(directory, f"{exp_id}.txt")
        atomic_write_bytes(path, f"[{exp_id}] {description}\n\n{table}\n"
                                 .encode("utf-8"))
        paths.append(path)
        record = experiment_record(exp_id, wall_seconds=wall, rows=rows)
        paths.append(write_record(directory, record))
        if ledger:
            from ..obs import append_record, make_record

            append_record(ledger, make_record(
                "bench",
                params={"experiment": exp_id},
                verdict={"rows": len(rows)},
                meta={"wall_seconds": wall, "jobs": jobs,
                      "directory": directory}))
    return paths
