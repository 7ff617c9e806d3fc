"""The static settle order settles exactly what the fixpoint does.

Every case elaborates one graph twice: the system as finalized, which
settles each cycle in one pass over the order the lint derived, and a
twin whose simulator has the order removed, which settles by the
kernel's fixpoint.  A cycle hook records every signal after settle; the
two runs must agree on every wire in every cycle and on every sink
stream.  Systems with a combinational stop cycle (admitted only by
``strict=False``) have no order and must take the fixpoint themselves.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import deadlock_suite
from repro.graph import SystemGraph, pipeline, random_dag, random_loopy, ring
from repro.graph.specs import TOPOLOGY_CHOICES, parse_topology
from repro.lid.lint import settle_order
from repro.lid.variant import ProtocolVariant
from repro.pearls import Identity
from repro.rtl import transplant_netlist_station

VARIANTS = list(ProtocolVariant)
SINGLE_CLOCK = [name for name in TOPOLOGY_CHOICES
                if not name.startswith("gals")]


def stop_script(seed, bias=0.4):
    rng = random.Random(seed)
    pattern = [rng.random() < bias for _ in range(61)]
    return lambda cycle: pattern[cycle % len(pattern)]


def record(system):
    signals = system.sim.signals
    rows = []
    system.sim.add_cycle_hook(
        lambda sim: rows.append(tuple(sig.value for sig in signals)))
    return signals, rows


def assert_settles_like_fixpoint(build, scheduled, seed=0, cycles=120):
    """*build()* returns a finalized system; compare it with its
    fixpoint twin under seeded random sink stop scripts."""
    system, twin = build(), build()
    assert (settle_order(system, strict=False) is not None) == scheduled
    twin.sim.set_settle_order(None)
    runs = []
    for lid in (system, twin):
        for index, sink in enumerate(lid.sinks.values()):
            sink.stop_script = stop_script(seed + index)
        signals, rows = record(lid)
        lid.run(cycles)
        runs.append((rows, {name: sink.received
                            for name, sink in lid.sinks.items()}))
    (rows, streams), (twin_rows, twin_streams) = runs
    assert len(rows) == len(twin_rows) == cycles
    # Compact failure messages: pytest's diff of long rows is slow.
    for cycle, (row, twin_row) in enumerate(zip(rows, twin_rows)):
        if row != twin_row:
            wrong = [sig.name for sig, a, b in zip(signals, row, twin_row)
                     if a != b]
            pytest.fail(f"cycle {cycle}: {wrong} differ from the fixpoint")
    if streams != twin_streams:
        pytest.fail("sink streams differ from the fixpoint")


def elaborated(graph, variant):
    return lambda: graph.elaborate(variant=variant, strict=False)


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("family", SINGLE_CLOCK)
def test_single_clock_families(family, variant):
    graph = parse_topology(family, seed=3)
    assert_settles_like_fixpoint(elaborated(graph, variant),
                                 scheduled=True, seed=len(family))


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
class TestStructures:
    def test_direct_shell_to_shell_is_scheduled(self, variant):
        # Illegal under strict, but acyclic: one pass still settles it.
        graph = pipeline(3, relays_per_hop=0)
        assert_settles_like_fixpoint(elaborated(graph, variant),
                                     scheduled=True, seed=1)

    def test_queued_shells(self, variant):
        g = SystemGraph("queued")
        g.add_source("src")
        g.add_queued_shell("Q0", Identity)
        g.add_shell("P", Identity)
        g.add_queued_shell("Q1", Identity, queue_depth=1)
        g.add_sink("out")
        g.add_edge("src", "Q0")
        g.add_edge("Q0", "P", relays=["half"])
        g.add_edge("P", "Q1")  # direct: the queue registers the stop
        g.add_edge("Q1", "out", relays=["half"])
        assert_settles_like_fixpoint(elaborated(g, variant),
                                     scheduled=True, seed=2)

    def test_half_registered_breaks_the_loop(self, variant):
        graph = ring(2, relays_per_arc=[["half-registered"], ["half"]])
        assert_settles_like_fixpoint(elaborated(graph, variant),
                                     scheduled=True, seed=3)

    @pytest.mark.parametrize("kind", ["full", "half"])
    def test_netlist_stations(self, variant, kind):
        graph = SystemGraph("gates")
        graph.add_source("src")
        for name in ("A", "B", "C"):
            graph.add_shell(name, Identity)
        graph.add_sink("out")
        graph.add_edge("src", "A", relays=[kind])
        graph.add_edge("A", "B", relays=[kind, "half"])
        graph.add_edge("B", "C", relays=[kind])
        graph.add_edge("C", "out")

        def build():
            system = graph.elaborate(variant=variant, strict=False)
            for name in list(system.relays):
                transplant_netlist_station(system, name)
            system.finalize(strict=False)
            return system

        assert_settles_like_fixpoint(build, scheduled=True, seed=4)

    def test_deadlock_study_suite(self, variant):
        """EXP-D1's systems; its all-half ring has a stop cycle and
        must take the fixpoint."""
        cyclic = []
        for family, _expect, graph in deadlock_suite():
            system = graph.elaborate(variant=variant, strict=False)
            scheduled = settle_order(system, strict=False) is not None
            if not scheduled:
                cyclic.append(graph.name)
            assert_settles_like_fixpoint(elaborated(graph, variant),
                                         scheduled=scheduled, seed=5)
        assert cyclic == ["ring_all_half"]


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), shells=st.integers(2, 6),
       half=st.floats(0.1, 1.0), variant=st.sampled_from(VARIANTS),
       stops=st.integers(0, 1_000))
def test_random_dags(seed, shells, half, variant, stops):
    graph = random_dag(seed, shells=shells, half_probability=half)
    assert_settles_like_fixpoint(elaborated(graph, variant),
                                 scheduled=True, seed=stops, cycles=80)


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), shells=st.integers(2, 5),
       half=st.floats(0.1, 1.0), variant=st.sampled_from(VARIANTS),
       stops=st.integers(0, 1_000))
def test_random_loopy(seed, shells, half, variant, stops):
    graph = random_loopy(seed, shells=shells, half_probability=half,
                         ensure_full_on_loops=False)
    probe = graph.elaborate(variant=variant, strict=False)
    scheduled = settle_order(probe, strict=False) is not None
    assert_settles_like_fixpoint(elaborated(graph, variant),
                                 scheduled=scheduled, seed=stops,
                                 cycles=80)
