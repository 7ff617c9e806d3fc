#!/usr/bin/env python3
"""Design-space exploration with the analysis and batch-simulation tools.

A floorplan gives you wire lengths; wire lengths demand relay stations;
relay stations cost throughput on some edges and nothing on others.
This example shows the workflow the toolkit supports on top of the
paper's theory:

1. map the *free slack* of every edge (where pipelining is free);
2. sweep one edge's relay count and watch the throughput Pareto curve;
3. meet a set of wire-length requirements and rebalance;
4. stress the final design against a whole batch of back-pressure
   scenarios at once with the batched (bit-plane) skeleton engine.

Run:  python examples/design_space_exploration.py
"""

from fractions import Fraction

from repro.analysis import (
    free_slack,
    insertion_plan,
    pareto_relay_throughput,
)
from repro.bench.tables import format_table
from repro.graph import figure1
from repro.skeleton import select, system_throughput


def main() -> None:
    graph = figure1()
    print(f"baseline: the paper's Figure-1 system, "
          f"T = {system_throughput(graph)}\n")

    # 1. Which edges can absorb pipelining for free?
    slack = free_slack(graph, limit=16)
    rows = [(f"{src} -> {dst}", extra if extra < 16 else ">=16")
            for (src, dst), extra in slack.items()]
    print(format_table(("edge", "free relay stations"), rows,
                       title="Free slack at T = 4/5"))
    print("\nreading: the long branch (A->B0->C) is the critical cycle —")
    print("zero slack; the short branch tolerates stations up to the")
    print("balance point; source/sink edges never bind.\n")

    # 2. The Pareto curve of the short branch.
    short_index = next(i for i, e in enumerate(graph.edges)
                       if (e.src, e.dst) == ("A", "C"))
    curve = pareto_relay_throughput(graph, short_index, max_relays=5)
    print(format_table(
        ("relay stations on A->C", "system throughput"),
        [(count, str(rate)) for count, rate in curve],
        title="Pareto sweep of the short branch"))
    print("\nthe peak at 2 stations is path equalization rediscovered;")
    print("beyond it the imbalance flips sign and voids return.\n")

    # 3. Physical requirements: the A->B0 wire is long (3 cycles).
    planned, rate = insertion_plan(graph, {("A", "B0"): 3})
    print(f"after meeting A->B0 >= 3 relay stations and rebalancing: "
          f"T = {rate}, {planned.relay_count()} stations total\n")
    assert rate == Fraction(1)

    # 4. Batch-stress the planned design against 8 sink scripts.
    scenarios = [
        {"out": tuple((i >> b) & 1 == 1 for b in range(3))}
        for i in range(8)
    ]
    cycles = 900
    batch = select(planned, sink_patterns=scenarios)
    batch.run_cycles(cycles)
    rates = batch.accept_counts()[batch.sink_names.index("out")] / cycles
    rows = [
        ("".join("S" if bit else "." for bit in scenarios[i]["out"]),
         f"{float(rates[i]):.3f}")
        for i in range(len(scenarios))
    ]
    print(format_table(
        ("sink stop pattern (period 3)", "delivered rate"), rows,
        title="Batch back-pressure sweep of the planned design"))
    # Only the degenerate stop-forever script (instance 7) stalls:
    # some shell of it never fires.
    fires = batch.fire_counts()
    assert [i for i in range(len(scenarios))
            if (fires[:, i] == 0).any()] == [7]
    print("\ndelivery degrades exactly with the stop duty cycle, and "
          "only the stop-forever script stalls the system — every "
          "partial script keeps all shells firing.")


if __name__ == "__main__":
    main()
