"""Compiled plans: cache, key, counter forms, state isolation.

Bit-exactness against the scalar reference lives in
``test_backend_conformance.py`` (the differential harness); this file
covers what is specific to *compiled* plans — that they are compiled
once and shared, that the key separates everything the source bakes
in (declaration order and the counter form included), that the
in-process cache is a bounded LRU, and that sharing a plan never
shares simulator state.
"""

import pytest

from repro.graph import figure2, pipeline, ring
from repro.graph.model import SystemGraph
from repro.ir import lower
from repro.lid.variant import ProtocolVariant
from repro.obs import Telemetry
from repro.skeleton import BitplaneSkeletonSim, SkeletonSim
from repro.skeleton import codegen
from repro.skeleton.codegen import PLAN_CACHE_SIZE, STATS, clear_plan_cache
from repro.skeleton.codegen.planes import generate_plane_source


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    """Each test sees an empty in-process plan cache and zero stats."""
    clear_plan_cache()
    STATS.reset()
    yield
    clear_plan_cache()
    STATS.reset()


def _one_plane(graph, **kwargs):
    """A width-1 bit-plane simulator: the compiled one-plane plan."""
    return BitplaneSkeletonSim(graph, batch=1, **kwargs)


def _scalar_state(sim, plane=0):
    """A bit-plane sim's registers in one plane, in scalar layout."""
    def bits(words):
        return [bool((w >> plane) & 1) for w in words]

    return (bits(sim.shell_reg), bits(sim.rs_main), bits(sim.rs_aux),
            bits(sim.rs_stop_reg),
            [row[plane] for row in sim.src_phase])


def _reference_state(sim):
    return (list(sim.shell_reg), list(sim.rs_main), list(sim.rs_aux),
            list(sim.rs_stop_reg), list(sim.src_phase))


class TestPlanCache:
    def test_same_topology_compiles_once(self):
        a = _one_plane(figure2())
        b = _one_plane(figure2())
        assert STATS.compiles == 1
        assert STATS.plan_hits == 1
        assert a._plan is b._plan

    def test_key_covers_variant_fixpoint_and_flags(self):
        graph = figure2()
        _one_plane(graph)
        _one_plane(graph, variant=ProtocolVariant.CARLONI)
        _one_plane(graph, fixpoint="greatest")
        _one_plane(graph, detect_ambiguity=False)
        _one_plane(graph, telemetry=Telemetry.metrics_only())
        assert STATS.compiles == 5
        assert STATS.plan_hits == 0

    def test_structurally_equal_graphs_share_a_plan(self):
        # The key is the content-addressed IR fingerprint, not object
        # identity: two independently built identical topologies reuse
        # the same compiled plan.
        _one_plane(pipeline(4))
        _one_plane(pipeline(4))
        assert STATS.compiles == 1 and STATS.plan_hits == 1

    def test_shared_plan_does_not_share_state(self):
        # Two sims from one compiled template must diverge freely: the
        # compiled functions close over nothing mutable — all state
        # loads from / stores to the sim instance passed in.
        graph = figure2()
        stalled = BitplaneSkeletonSim(graph, [{"out": (True,)}])
        free = _one_plane(graph)
        assert stalled._plan is free._plan
        for _ in range(20):
            stalled.step()
            free.step()
        assert _scalar_state(stalled) != _scalar_state(free)
        ref_stalled = SkeletonSim(graph, sink_patterns={"out": (True,)})
        ref_free = SkeletonSim(graph)
        for _ in range(20):
            ref_stalled.step()
            ref_free.step()
        assert _scalar_state(stalled) == _reference_state(ref_stalled)
        assert _scalar_state(free) == _reference_state(ref_free)
        assert stalled.metrics_snapshot(0) == ref_stalled.metrics_snapshot()
        assert free.metrics_snapshot(0) == ref_free.metrics_snapshot()

    def test_plan_source_is_real_python(self):
        sim = _one_plane(ring(2))
        source = sim._plan.source
        assert "def cycle(sim):" in source
        assert "def run_cycles(sim, n):" in source
        compile(source, "<plan>", "exec")  # must be valid syntax


def _declared_chain(reverse):
    """``src -> A -> (full, full) -> B -> (half) -> out``, its nodes and
    edges declared in order or in reverse: one fingerprint, two hop
    tables."""
    graph = SystemGraph("declared-chain")
    nodes = [("src", "source"), ("A", "shell"), ("B", "shell"),
             ("out", "sink")]
    edges = [("src", "A", ()), ("A", "B", ("full", "full")),
             ("B", "out", ("half",))]
    if reverse:
        nodes, edges = nodes[::-1], edges[::-1]
    for name, kind in nodes:
        if kind == "source":
            graph.add_source(name)
        elif kind == "sink":
            graph.add_sink(name, stop_script=lambda c: c % 3 == 0)
        else:
            graph.add_shell(name, lambda: None)
    for src, dst, relays in edges:
        graph.add_edge(src, dst, relays=relays)
    return graph


def _fire_counts(sim, planes):
    return [[sim.fire_count(i, p) for i in range(len(sim.shell_names))]
            for p in range(planes)]


class TestPlanKey:
    #: The sink script ``c % 3 == 0`` as a skeleton stop pattern.
    SCRIPT = {"out": (True, False, False)}

    def test_declaration_order_is_part_of_the_key(self):
        forward, backward = _declared_chain(False), _declared_chain(True)
        assert lower(forward).fingerprint == lower(backward).fingerprint
        assert lower(forward).hop_names != lower(backward).hop_names
        for first, second in ((forward, backward), (backward, forward)):
            clear_plan_cache()
            for width in (1, 2):
                BitplaneSkeletonSim(first, [self.SCRIPT] * width).run(5)
            ref = SkeletonSim(second, sink_patterns=self.SCRIPT)
            for _ in range(200):
                ref.step()
            ref_fires = [sum(f[i] for f in ref.fire_history)
                         for i in range(2)]
            for width in (1, 2):
                planes = BitplaneSkeletonSim(second, [self.SCRIPT] * width)
                planes.run(200)
                assert [planes.accept_history(p) for p in range(width)] \
                    == [ref.accept_history] * width
                assert _fire_counts(planes, width) == [ref_fires] * width
            assert STATS.plan_hits == 0

    def test_counter_forms_never_share_a_plan(self):
        """A width-1 and a width-2 batch of one topology run two plans
        (plain and vertical counters), and both match the scalar
        reference."""
        graph = ring(2, relays_per_arc=[["half"], ["full"]])
        scripts = [{"out": (False, True, True)}, {}]
        one = BitplaneSkeletonSim(graph, scripts[:1],
                                  telemetry=Telemetry.metrics_only())
        two = BitplaneSkeletonSim(graph, scripts,
                                  telemetry=Telemetry.metrics_only())
        assert one._plan is not two._plan
        assert one._plan.key != two._plan.key
        assert one._plan.key[1:] == two._plan.key[1:]
        assert STATS.compiles == 2
        # Another batch reuses the plan of its counter form: the width
        # of a multi-plane batch is runtime data.
        again = [BitplaneSkeletonSim(graph, batch=width,
                                     telemetry=Telemetry.metrics_only())
                 for width in (1, 3)]
        assert again[0]._plan is one._plan
        assert again[1]._plan is two._plan
        assert STATS.compiles == 2 and STATS.plan_hits == 2
        one.run(37)
        one.run(40)
        two.run(77)
        for plane, script in enumerate(scripts):
            ref = SkeletonSim(graph, sink_patterns=script,
                              telemetry=Telemetry.metrics_only())
            for _ in range(77):
                ref.step()
            batches = (one, two) if plane == 0 else (two,)
            for sim in batches:
                assert _scalar_state(sim, plane) == _reference_state(ref)
                assert sim.accept_history(plane) == ref.accept_history
                assert sim.ambiguous_cycles[plane] == ref.ambiguous_cycles
                assert sim.metrics_snapshot(plane) == ref.metrics_snapshot()


class TestPlanCacheBound:
    def test_lru_keeps_exactly_the_bound(self):
        extra = 3
        graphs = [pipeline(n) for n in range(1, PLAN_CACHE_SIZE + extra + 1)]
        for graph in graphs:
            _one_plane(graph)
        assert len(codegen._PLAN_CACHE) == PLAN_CACHE_SIZE
        assert STATS.compiles == PLAN_CACHE_SIZE + extra
        assert STATS.evictions == extra

    def test_a_hit_refreshes_recency(self):
        graphs = [pipeline(n) for n in range(1, PLAN_CACHE_SIZE + 1)]
        for graph in graphs:
            _one_plane(graph)
        _one_plane(graphs[0])  # now the most recently used
        _one_plane(pipeline(PLAN_CACHE_SIZE + 1))
        assert STATS.evictions == 1
        _one_plane(graphs[0])
        assert STATS.plan_hits == 2  # still cached
        _one_plane(graphs[1])
        assert STATS.compiles == PLAN_CACHE_SIZE + 2  # evicted

    def test_evicted_topology_recompiles_identically(self):
        graph = ring(2, relays_per_arc=[["half"], ["full"]])
        script = [{"out": (False, True, True)}, {}]
        first = BitplaneSkeletonSim(graph, script)
        source = first._plan.source
        first.run(90)
        for n in range(1, PLAN_CACHE_SIZE + 1):
            BitplaneSkeletonSim(pipeline(n), batch=2)
        assert STATS.evictions >= 1
        compiles = STATS.compiles
        again = BitplaneSkeletonSim(graph, script)
        assert STATS.compiles == compiles + 1
        assert again._plan is not first._plan
        assert again._plan.source == source
        again.run(90)
        assert again.state_keys() == first.state_keys()
        assert again.accept_history(0) == first.accept_history(0)
        assert [again.metrics_snapshot(p) for p in (0, 1)] \
            == [first.metrics_snapshot(p) for p in (0, 1)]


class TestConsumers:
    def test_throughput_sweep_routes_through_codegen(self):
        from repro.analysis.throughput import throughput_sweep

        for patterns in ([{"out": (False, True)}],
                         [{}, {"out": (False, True)}]):
            clear_plan_cache()
            STATS.reset()
            scalar = throughput_sweep(figure2(), sink_patterns=patterns,
                                      backend="scalar")
            assert STATS.compiles == 0
            compiled = throughput_sweep(figure2(), sink_patterns=patterns,
                                        backend="bitsim")
            assert STATS.compiles == 1
            assert compiled == scalar  # exact Fractions, per instance


def _source(low, **overrides):
    kwargs = dict(is_casu=True, one_plane=True, fixpoint="least",
                  detect_ambiguity=True, metrics_on=False,
                  events_on=False)
    kwargs.update(overrides)
    return generate_plane_source(low, **kwargs)


class TestGeneratedSource:
    def test_casu_and_carloni_differ_only_where_semantics_do(self):
        low = lower(figure2())
        for one_plane in (True, False):
            casu = _source(low, one_plane=one_plane)
            carloni = _source(low, one_plane=one_plane, is_casu=False)
            assert casu != carloni
            assert casu.splitlines()[5:] != carloni.splitlines()[5:]

    def test_flags_gate_instrumentation_code(self):
        low = lower(figure2())
        for one_plane in (True, False):
            plain = _source(low, one_plane=one_plane)
            metered = _source(low, one_plane=one_plane, metrics_on=True)
            for ref in ("sim.hop_stall_cycles", "sim.rs_occupancy_counts"):
                assert ref not in plain and ref in metered

    def test_counter_form_shapes_the_source(self):
        """One plane: plain int deltas, rippled in once per call and
        never read back; any width: vertical slices held in locals."""
        low = lower(figure2())
        plain = _source(low, one_plane=True)
        vertical = _source(low, one_plane=False)
        assert "def _ripple(" in plain and "def _carry(" not in plain
        assert "def _carry(" in vertical and "def _ripple(" not in vertical
        assert ".slices[" not in plain and "c0a" not in plain
        assert "_S0 = sim.stop_assertions.slices" in vertical
