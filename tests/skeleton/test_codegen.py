"""Compiled plans: cache, key, disk layer, state isolation.

Bit-exactness against the scalar reference lives in
``test_backend_conformance.py`` (the differential harness); this file
covers what is specific to *compiled* plans — that they are compiled
once and shared, that the key separates everything the source bakes
in (declaration order included), that the in-process cache is a
bounded LRU, that sharing a plan never shares simulator state, and
that the optional disk layer round-trips source text across processes
(simulated by clearing the in-process cache).
"""

import pytest

from repro.exec import ResultCache
from repro.graph import figure2, pipeline, ring
from repro.graph.model import SystemGraph
from repro.ir import lower
from repro.lid.variant import ProtocolVariant
from repro.skeleton import BitplaneSkeletonSim, CodegenSkeletonSim, SkeletonSim
from repro.skeleton import codegen
from repro.skeleton.codegen import (
    CODEGEN_SCHEMA,
    PLAN_CACHE_SIZE,
    STATS,
    clear_plan_cache,
    generate_source,
    plan_for,
)


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    """Each test sees an empty in-process plan cache and zero stats."""
    clear_plan_cache()
    STATS.reset()
    yield
    clear_plan_cache()
    STATS.reset()


class TestPlanCache:
    def test_same_topology_compiles_once(self):
        a = CodegenSkeletonSim(figure2())
        b = CodegenSkeletonSim(figure2())
        assert STATS.compiles == 1
        assert STATS.plan_hits == 1
        assert a._plan is b._plan

    def test_key_covers_variant_fixpoint_and_flags(self):
        graph = figure2()
        CodegenSkeletonSim(graph)
        CodegenSkeletonSim(graph, variant=ProtocolVariant.CARLONI)
        CodegenSkeletonSim(graph, fixpoint="greatest")
        CodegenSkeletonSim(graph, detect_ambiguity=False)
        assert STATS.compiles == 4
        assert STATS.plan_hits == 0

    def test_structurally_equal_graphs_share_a_plan(self):
        # The key is the content-addressed IR fingerprint, not object
        # identity: two independently built identical topologies reuse
        # the same compiled plan.
        CodegenSkeletonSim(pipeline(4))
        CodegenSkeletonSim(pipeline(4))
        assert STATS.compiles == 1 and STATS.plan_hits == 1

    def test_shared_plan_does_not_share_state(self):
        # Two sims from one compiled template must diverge freely: the
        # compiled functions close over nothing mutable — all state
        # loads from / stores to the sim instance passed in.
        graph = figure2()
        stalled = CodegenSkeletonSim(
            graph, sink_patterns={"out": (True,)})
        free = CodegenSkeletonSim(graph)
        assert stalled._plan is free._plan
        for _ in range(20):
            stalled.step()
            free.step()
        assert stalled.state() != free.state()
        ref_stalled = SkeletonSim(graph, sink_patterns={"out": (True,)})
        ref_free = SkeletonSim(graph)
        for _ in range(20):
            ref_stalled.step()
            ref_free.step()
        assert stalled.state() == ref_stalled.state()
        assert free.state() == ref_free.state()

    def test_plan_source_is_real_python(self):
        sim = CodegenSkeletonSim(ring(2))
        source = sim.plan_source
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


class TestPlanKey:
    #: The sink script ``c % 3 == 0`` as a skeleton stop pattern.
    SCRIPT = {"out": (True, False, False)}

    def test_declaration_order_is_part_of_the_key(self):
        forward, backward = _declared_chain(False), _declared_chain(True)
        assert lower(forward).fingerprint == lower(backward).fingerprint
        assert lower(forward).hop_names != lower(backward).hop_names
        for first, second in ((forward, backward), (backward, forward)):
            clear_plan_cache()
            CodegenSkeletonSim(first, sink_patterns=self.SCRIPT) \
                .run_cycles(5)
            BitplaneSkeletonSim(first, [self.SCRIPT] * 2).run(5)
            compiled = CodegenSkeletonSim(second,
                                          sink_patterns=self.SCRIPT)
            planes = BitplaneSkeletonSim(second, [self.SCRIPT] * 2)
            ref = SkeletonSim(second, sink_patterns=self.SCRIPT)
            compiled.run_cycles(200)
            planes.run(200)
            for _ in range(200):
                ref.step()
            assert compiled.fire_history == ref.fire_history
            assert [planes.accept_history(p) for p in (0, 1)] \
                == [ref.accept_history] * 2
            assert [[planes.fire_count(i, p) for i in range(2)]
                    for p in (0, 1)] \
                == [[sum(f[i] for f in ref.fire_history)
                     for i in range(2)]] * 2
            assert STATS.plan_hits == 0

    def test_emitters_never_share_a_plan(self):
        low = lower(figure2())
        kwargs = dict(fixpoint="least", detect_ambiguity=False,
                      metrics_on=False, events_on=False)
        scalar = plan_for(low, ProtocolVariant.CASU, **kwargs)
        planes = plan_for(low, ProtocolVariant.CASU, planes=True,
                          **kwargs)
        assert scalar is not planes and scalar.key != planes.key
        assert STATS.compiles == 2


class TestPlanCacheBound:
    def test_lru_keeps_exactly_the_bound(self):
        extra = 3
        graphs = [pipeline(n) for n in range(1, PLAN_CACHE_SIZE + extra + 1)]
        for graph in graphs:
            CodegenSkeletonSim(graph)
        assert len(codegen._PLAN_CACHE) == PLAN_CACHE_SIZE
        assert STATS.compiles == PLAN_CACHE_SIZE + extra
        assert STATS.evictions == extra

    def test_a_hit_refreshes_recency(self):
        graphs = [pipeline(n) for n in range(1, PLAN_CACHE_SIZE + 1)]
        for graph in graphs:
            CodegenSkeletonSim(graph)
        CodegenSkeletonSim(graphs[0])  # now the most recently used
        CodegenSkeletonSim(pipeline(PLAN_CACHE_SIZE + 1))
        assert STATS.evictions == 1
        CodegenSkeletonSim(graphs[0])
        assert STATS.plan_hits == 2  # still cached
        CodegenSkeletonSim(graphs[1])
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


class TestDiskCache:
    def test_second_process_recompiles_from_disk_source(self, tmp_path):
        cache = ResultCache.disk(str(tmp_path / "cc"))
        CodegenSkeletonSim(figure2(), compile_cache=cache)
        assert STATS.compiles == 1 and STATS.disk_hits == 0

        # Simulate a fresh process: in-process plans gone, disk kept.
        clear_plan_cache()
        STATS.reset()
        cache2 = ResultCache.disk(str(tmp_path / "cc"))
        sim = CodegenSkeletonSim(figure2(), compile_cache=cache2)
        assert STATS.disk_hits == 1
        assert STATS.compiles == 0
        # The reloaded plan must still be the real thing.
        ref = SkeletonSim(figure2())
        for _ in range(30):
            assert sim.step() == ref.step()

    def test_disk_layer_stores_source_text(self, tmp_path):
        cache = ResultCache.disk(str(tmp_path / "cc"))
        low = lower(figure2())
        plan = plan_for(low, ProtocolVariant.CASU, fixpoint="least",
                        detect_ambiguity=True, metrics_on=False,
                        events_on=False, disk_cache=cache)
        stored = cache.get(cache.key(CODEGEN_SCHEMA, *plan.key))
        assert stored == plan.source

    def test_schema_tag_is_versioned(self):
        assert CODEGEN_SCHEMA.startswith("repro-codegen/v")


class TestConsumers:
    def test_throughput_sweep_routes_through_codegen(self):
        from repro.analysis.throughput import throughput_sweep

        patterns = [{}, {"out": (False, True)}]
        scalar = throughput_sweep(figure2(), sink_patterns=patterns,
                                  backend="scalar")
        compiled = throughput_sweep(figure2(), sink_patterns=patterns,
                                    backend="codegen")
        assert compiled == scalar  # exact Fractions, per instance

    def test_check_deadlock_backend_verdicts_match(self):
        from repro.skeleton import check_deadlock

        graph = ring(2, relays_per_arc=[["half"], ["half"]])
        scalar = check_deadlock(graph)
        compiled = check_deadlock(graph, backend="codegen")
        for field in ("deadlocked", "potential", "transient", "period",
                      "detail", "inconclusive"):
            assert getattr(compiled, field) == getattr(scalar, field), \
                field


class TestGeneratedSource:
    def test_casu_and_carloni_differ_only_where_semantics_do(self):
        low = lower(figure2())
        casu = generate_source(low, is_casu=True, fixpoint="least",
                               detect_ambiguity=True, metrics_on=False,
                               events_on=False)
        carloni = generate_source(low, is_casu=False, fixpoint="least",
                                  detect_ambiguity=True,
                                  metrics_on=False, events_on=False)
        assert casu != carloni

    def test_flags_gate_instrumentation_code(self):
        low = lower(figure2())
        plain = generate_source(low, is_casu=True, fixpoint="least",
                                detect_ambiguity=True, metrics_on=False,
                                events_on=False)
        metered = generate_source(low, is_casu=True, fixpoint="least",
                                  detect_ambiguity=True, metrics_on=True,
                                  events_on=False)
        assert "_hs" not in plain and "_occ" not in plain
        assert "_hs" in metered and "_occ" in metered
