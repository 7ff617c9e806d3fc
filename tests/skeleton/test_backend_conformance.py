"""Differential conformance: every backend vs the scalar reference.

The batch engine's contract is **bit-exactness**: for every instance
of a batch, every register, bridge occupancy, wire, firing decision and
instrumentation counter must equal a scalar :class:`SkeletonSim` run
with the same scripts, cycle by cycle.  This suite drives the engines
in lockstep over the full feature matrix — protocol variants x relay
kinds x fixpoints x scripted sources/sinks x GALS clock domains and
CDC pokes — through the raw engine classes, the unified
``repro.skeleton.backend.select`` API, and a sweep over every
benchmark workload topology.

Registering a new backend is one edit: add its ``select()`` name to
``BACKENDS`` (and a batch engine to ``BATCH_ENGINES``, teaching the
column adapters below how to read one instance of its state).  Every
test here parametrizes over those lists, so the new engine inherits
the whole contract.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench import workloads
from repro.errors import PeriodicityTimeout
from repro.graph import figure1, figure2, parse_topology, pipeline, ring, tree
from repro.graph.random_gen import random_dag, random_loopy
from repro.ir import lower
from repro.lid.variant import ProtocolVariant
from repro.obs import Telemetry
from repro.skeleton import (
    BitplaneBackend,
    BitplaneSkeletonSim,
    ScalarBackend,
    SkeletonSim,
    select,
)
from repro.skeleton.codegen import STATS

from .test_gals import GALS_SPECS

VARIANTS = [ProtocolVariant.CASU, ProtocolVariant.CARLONI]

#: Every name ``select()`` accepts; the single registration point for
#: the differential harness.
BACKENDS = ["scalar", "bitsim"]

#: The batch engines, lockstep-compared against the scalar reference.
BATCH_ENGINES = {
    "bitsim": BitplaneSkeletonSim,
}


def _column_bits(values, column):
    """One instance's bools from a batch engine's per-signal state."""
    return tuple(bool((word >> column) & 1) for word in values)


def _column_counters(sim, column):
    """(assertions, on-voids, internal on-voids) for one instance."""
    return (sim.stop_assertions.value(column),
            sim.stops_on_voids.value(column),
            sim.internal_stops_on_voids.value(column))


def _column_occupancy(sim, column):
    """Per-bridge occupancy of one instance (thermometer popcount)."""
    return tuple(sum((word >> column) & 1 for word in ge)
                 for ge in sim.bridge_ge)


def _all_relays(graph, kind):
    for edge in graph.edges:
        if edge.relays:
            edge.relays = (kind,) * len(edge.relays)
    return graph


def _graph_matrix():
    return [
        pipeline(3, relays_per_hop=2),
        figure1(),
        figure2(),
        tree(2),
        ring(3, relays_per_arc=[["full"], ["half"],
                                ["half-registered"]]),
        _all_relays(pipeline(3), "half"),
        _all_relays(pipeline(3), "half-registered"),
        random_dag(seed=7, shells=5, half_probability=0.5),
        random_loopy(seed=3, shells=4),
    ]


def _scripts_for(graph):
    """A few sink/source script pairs adapted to the graph's names."""
    sinks = [n.name for n in graph.sinks()]
    sources = [n.name for n in graph.sources()]
    combos = [({}, {})]
    if sinks:
        combos.append(({sinks[0]: (False, False, True, True)}, {}))
    if sources:
        combos.append(({}, {sources[0]: (True, False, True)}))
    if sinks and sources:
        combos.append(({sinks[0]: (True, False)},
                       {sources[0]: (False, True)}))
    return combos


def _lockstep(graph, variant, fixpoint, sink_map, source_map, backend,
              cycles=60):
    """Drive scalar and one batch engine; compare all state per cycle."""
    scalar = SkeletonSim(graph, sink_patterns=sink_map,
                         source_patterns=source_map, variant=variant,
                         fixpoint=fixpoint,
                         telemetry=Telemetry.metrics_only())
    batch = BATCH_ENGINES[backend](
        graph, [sink_map], source_patterns=[source_map],
        variant=variant, fixpoint=fixpoint,
        telemetry=Telemetry.metrics_only())
    for cycle in range(cycles):
        s_fires, s_accepts = scalar.step()
        b_fires, b_accepts = batch.step()
        ctx = (backend, graph.name, variant.name, fixpoint, cycle)
        assert _column_bits(b_fires, 0) == s_fires, \
            ("fires", ctx)
        assert _column_bits(b_accepts, 0) == s_accepts, \
            ("accepts", ctx)
        assert _column_bits(batch.shell_reg, 0) \
            == tuple(scalar.shell_reg), ("reg", ctx)
        assert _column_bits(batch.rs_main, 0) \
            == tuple(scalar.rs_main), ("main", ctx)
        assert _column_bits(batch.rs_aux, 0) \
            == tuple(scalar.rs_aux), ("aux", ctx)
        assert _column_bits(batch.rs_stop_reg, 0) \
            == tuple(scalar.rs_stop_reg), ("stop_reg", ctx)
        assert _column_counters(batch, 0) == (
            scalar.stop_assertions_total,
            scalar.stops_on_voids_total,
            scalar.internal_stops_on_voids_total), ("counters", ctx)
    assert batch.ambiguous_cycles[0] == scalar.ambiguous_cycles, \
        (backend, graph.name, variant.name, fixpoint)
    # Telemetry parity: the canonical metric snapshots (counters,
    # gauges and occupancy histograms) must be equal dicts — not
    # merely close; same keys, same integers, same derived floats.
    assert batch.metrics_snapshot(0) == scalar.metrics_snapshot(), \
        ("metrics", backend, graph.name, variant.name, fixpoint)


@pytest.mark.parametrize("backend", list(BATCH_ENGINES),
                         ids=list(BATCH_ENGINES))
class TestLockstepMatrix:
    """Registers, wires and counters identical, cycle by cycle."""

    @pytest.mark.parametrize("graph", _graph_matrix(),
                             ids=lambda g: g.name)
    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: v.name.lower())
    def test_least_fixpoint(self, graph, variant, backend):
        for sink_map, source_map in _scripts_for(graph):
            _lockstep(graph, variant, "least", sink_map, source_map,
                      backend)

    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: v.name.lower())
    def test_greatest_fixpoint_on_ambiguous_graphs(self, variant,
                                                   backend):
        """Latch-up semantics must also match where fixpoints differ."""
        for graph in (_all_relays(pipeline(3), "half"),
                      ring(2, relays_per_arc=[["half"], ["half"]])):
            for sink_map, source_map in _scripts_for(graph):
                _lockstep(graph, variant, "greatest", sink_map,
                          source_map, backend)

    def test_wide_batch_matches_scalar_columns(self, backend):
        """Many instances at once (bitsim: several machine words)."""
        graph = figure2()
        sinks = [n.name for n in graph.sinks()]
        sink_maps = [{sinks[0]: ((False,) * i + (True,) + (False,) * 3)}
                     for i in range(70)]
        batch = BATCH_ENGINES[backend](graph, sink_maps)
        for _ in range(40):
            batch.step()
        for column in (0, 1, 63, 64, 69):
            scalar = SkeletonSim(graph, sink_patterns=sink_maps[column])
            for _ in range(40):
                scalar.step()
            assert _column_counters(batch, column) == (
                scalar.stop_assertions_total,
                scalar.stops_on_voids_total,
                scalar.internal_stops_on_voids_total), column
            assert batch.metrics_snapshot(column) \
                == scalar.metrics_snapshot(), column


@pytest.mark.parametrize("backend", list(BATCH_ENGINES),
                         ids=list(BATCH_ENGINES))
class TestRunToPeriod:
    """Transient/period extraction must agree with SkeletonSim.run()."""

    @pytest.mark.parametrize("graph", _graph_matrix(),
                             ids=lambda g: g.name)
    def test_periodicity_matches(self, graph, backend):
        combos = _scripts_for(graph)
        sink_patterns = [sk for sk, _so in combos]
        source_patterns = [so for _sk, so in combos]
        batch = BATCH_ENGINES[backend](
            graph, sink_patterns, source_patterns=source_patterns)
        results = batch.run_to_period()
        for (sink_map, source_map), result in zip(combos, results):
            ref = SkeletonSim(graph, sink_patterns=sink_map,
                              source_patterns=source_map).run()
            assert result.transient == ref.transient, graph.name
            assert result.period == ref.period, graph.name
            assert result.shell_fires == ref.shell_fires, graph.name
            assert result.sink_accepts == ref.sink_accepts, graph.name
            assert result.deadlocked == ref.deadlocked, graph.name
            assert (result.potential_deadlock_cycle
                    == ref.potential_deadlock_cycle), graph.name


def _gals_columns(graph, cycles):
    """Scripted columns and CDC pokes for one GALS topology.

    Returns ``(sink_maps, source_maps, pokes)``; ``pokes`` lists
    ``(column, bridge, cycle, delta, duration)`` in registration order.
    Columns 4-8 poke the bridges: an overflow window long enough to
    saturate the FIFO and keep pushing on a full bridge, an underflow
    window that keeps popping an empty one, an overflow that lasts to
    the end of the run, and two columns that fill a bridge and then
    apply two opposite pokes in one cycle, in either order (the order
    decides the clamp).
    """
    sinks = [n.name for n in graph.sinks()]
    sources = [n.name for n in graph.sources()]
    sink_script = {sinks[0]: (False, True, True)}
    source_script = {sources[0]: (True, False)} if sources else {}
    sink_maps = [{}, sink_script, {}, sink_script] + [{}] * 5
    source_maps = [{}, {}, source_script, source_script] + [{}] * 5
    bridges = lower(graph).bridges
    last = len(bridges) - 1
    depth = max(bridge.depth for bridge in bridges)
    pokes = [
        (4, 0, 5, +1, depth + 4),
        (5, last, 5, -1, depth + 4),
        (6, last, 30, +1, cycles - 30),
        (7, 0, 12, +5, 1), (7, 0, 12, +1, 1), (7, 0, 12, -1, 1),
        (8, 0, 12, +5, 1), (8, 0, 12, -1, 1), (8, 0, 12, +1, 1),
    ]
    return sink_maps, source_maps, pokes


def _gals_lockstep(spec, variant, fixpoint, cycles=120):
    graph = parse_topology(spec)
    sink_maps, source_maps, pokes = _gals_columns(graph, cycles)
    scalars = [
        SkeletonSim(graph, variant=variant, fixpoint=fixpoint,
                    sink_patterns=sink_maps[col],
                    source_patterns=source_maps[col],
                    telemetry=Telemetry.metrics_only())
        for col in range(len(sink_maps))]
    batch = BitplaneSkeletonSim(
        graph, sink_maps, source_patterns=source_maps, variant=variant,
        fixpoint=fixpoint, telemetry=Telemetry.metrics_only())
    for col, bridge, at, delta, duration in pokes:
        scalars[col].poke_bridge(bridge, at, delta, duration)
        batch.poke_bridge(col, bridge, at, delta, duration)
    for cycle in range(cycles):
        b_fires, b_accepts = batch.step()
        for col, scalar in enumerate(scalars):
            s_fires, s_accepts = scalar.step()
            ctx = (spec, variant.name, fixpoint, cycle, col)
            assert _column_bits(b_fires, col) == s_fires, ctx
            assert _column_bits(b_accepts, col) == s_accepts, ctx
            assert _column_bits(batch.shell_reg, col) \
                == tuple(scalar.shell_reg), ctx
            assert _column_bits(batch.rs_main, col) \
                == tuple(scalar.rs_main), ctx
            assert _column_bits(batch.rs_aux, col) \
                == tuple(scalar.rs_aux), ctx
            assert _column_bits(batch.rs_stop_reg, col) \
                == tuple(scalar.rs_stop_reg), ctx
            assert _column_occupancy(batch, col) \
                == tuple(scalar.bridge_occ), ctx
            assert _column_counters(batch, col) == (
                scalar.stop_assertions_total,
                scalar.stops_on_voids_total,
                scalar.internal_stops_on_voids_total), ctx
        if cycle == 12:
            # Same pokes, opposite order: the clamp makes them differ.
            assert _column_occupancy(batch, 7)[0] \
                == _column_occupancy(batch, 8)[0] - 1, spec
    for col, scalar in enumerate(scalars):
        assert batch.ambiguous_cycles[col] == scalar.ambiguous_cycles
        # Bridge occupancy histograms included.
        assert batch.metrics_snapshot(col) == scalar.metrics_snapshot(), \
            (spec, col)

    # Periodicity extraction with the same scripts and pokes.
    batch = BitplaneSkeletonSim(
        graph, sink_maps, source_patterns=source_maps, variant=variant,
        fixpoint=fixpoint)
    scalars = [
        SkeletonSim(graph, variant=variant, fixpoint=fixpoint,
                    sink_patterns=sink_maps[col],
                    source_patterns=source_maps[col])
        for col in range(len(sink_maps))]
    for col, bridge, at, delta, duration in pokes:
        scalars[col].poke_bridge(bridge, at, delta, duration)
        batch.poke_bridge(col, bridge, at, delta, duration)
    for col, (result, scalar) in enumerate(zip(batch.run_to_period(),
                                               scalars)):
        ref = dataclasses.asdict(scalar.run())
        got = dataclasses.asdict(result)
        # A batch runs until its slowest instance is periodic.
        ref.pop("cycles_run")
        got.pop("cycles_run")
        assert got == ref, (spec, col)


def _gals_one_plane(spec, variant, fixpoint, cycles=120):
    """The poked columns of :func:`_gals_columns`, each as its own
    one-plane batch, stepped in lockstep with its scalar run."""
    graph = parse_topology(spec)
    sink_maps, source_maps, pokes = _gals_columns(graph, cycles)
    for col in sorted({poke[0] for poke in pokes}):
        scalar = SkeletonSim(graph, variant=variant, fixpoint=fixpoint,
                             sink_patterns=sink_maps[col],
                             source_patterns=source_maps[col],
                             telemetry=Telemetry.metrics_only())
        one = BitplaneSkeletonSim(
            graph, [sink_maps[col]], source_patterns=[source_maps[col]],
            variant=variant, fixpoint=fixpoint,
            telemetry=Telemetry.metrics_only())
        for poke_col, bridge, at, delta, duration in pokes:
            if poke_col == col:
                scalar.poke_bridge(bridge, at, delta, duration)
                one.poke_bridge(0, bridge, at, delta, duration)
        for cycle in range(cycles):
            s_fires, s_accepts = scalar.step()
            o_fires, o_accepts = one.step()
            ctx = (spec, variant.name, fixpoint, col, cycle)
            assert _column_bits(o_fires, 0) == s_fires, ctx
            assert _column_bits(o_accepts, 0) == s_accepts, ctx
            assert _column_bits(one.shell_reg, 0) \
                == tuple(scalar.shell_reg), ctx
            assert _column_bits(one.rs_main, 0) \
                == tuple(scalar.rs_main), ctx
            assert _column_occupancy(one, 0) \
                == tuple(scalar.bridge_occ), ctx
            assert _column_counters(one, 0) == (
                scalar.stop_assertions_total,
                scalar.stops_on_voids_total,
                scalar.internal_stops_on_voids_total), ctx
        assert one.ambiguous_cycles[0] == scalar.ambiguous_cycles
        assert one.metrics_snapshot(0) == scalar.metrics_snapshot(), \
            (spec, col)


class TestGalsLockstep:
    """Clock domains, bridges and CDC pokes, plane by plane."""

    @pytest.mark.parametrize("spec", GALS_SPECS)
    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: v.name.lower())
    @pytest.mark.parametrize("fixpoint", ["least", "greatest"])
    def test_gals_matches_scalar(self, spec, variant, fixpoint):
        _gals_lockstep(spec, variant, fixpoint)

    @pytest.mark.parametrize("spec", GALS_SPECS)
    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: v.name.lower())
    @pytest.mark.parametrize("fixpoint", ["least", "greatest"])
    def test_one_plane_with_pokes_matches_scalar(self, spec, variant,
                                                 fixpoint):
        """Width 1 (the plain-counter plan), bridge pokes included."""
        _gals_one_plane(spec, variant, fixpoint)


def _planes_match_scalar(graph, sink_maps, source_maps, cycles,
                         pokes=()):
    """One bit-plane batch vs one scalar run per plane, every cycle.

    *pokes* lists ``(plane, bridge, cycle, delta, duration)``.  Returns
    the batch so callers can inspect which runtime paths it took.
    """
    batch = BitplaneSkeletonSim(graph, sink_maps,
                                source_patterns=source_maps,
                                telemetry=Telemetry.metrics_only())
    scalars = [SkeletonSim(graph, sink_patterns=sink_maps[p],
                           source_patterns=source_maps[p],
                           telemetry=Telemetry.metrics_only())
               for p in range(len(sink_maps))]
    for plane, bridge, at, delta, duration in pokes:
        batch.poke_bridge(plane, bridge, at, delta, duration)
        scalars[plane].poke_bridge(bridge, at, delta, duration)
    for cycle in range(cycles):
        b_fires, b_accepts = batch.step() if cycle % 2 else (None, None)
        if not cycle % 2:
            batch.run(1)  # both entry points, interleaved
        for plane, scalar in enumerate(scalars):
            s_fires, s_accepts = scalar.step()
            ctx = (graph.name, cycle, plane)
            if b_fires is not None:
                assert _column_bits(b_fires, plane) == s_fires, ctx
                assert _column_bits(b_accepts, plane) == s_accepts, ctx
            assert _column_bits(batch.shell_reg, plane) \
                == tuple(scalar.shell_reg), ctx
            assert _column_bits(batch.rs_main, plane) \
                == tuple(scalar.rs_main), ctx
            assert _column_bits(batch.rs_aux, plane) \
                == tuple(scalar.rs_aux), ctx
            assert _column_bits(batch.rs_stop_reg, plane) \
                == tuple(scalar.rs_stop_reg), ctx
            assert _column_occupancy(batch, plane) \
                == tuple(scalar.bridge_occ), ctx
    for plane, scalar in enumerate(scalars):
        ctx = (graph.name, plane)
        assert [row[plane] for row in batch.src_phase] \
            == scalar.src_phase, ctx
        assert batch.accept_history(plane) == scalar.accept_history, ctx
        assert batch.ambiguous_cycles[plane] == scalar.ambiguous_cycles, ctx
        assert batch.metrics_snapshot(plane) == scalar.metrics_snapshot(), \
            ctx
    return batch


class TestCompiledPlanRuntimeData:
    """One compiled plan serves every run of a topology: scripts,
    spans, batch width, holds, pokes and cycle counts are read from
    the simulator on each call, never baked into the plan."""

    @staticmethod
    def _compile_once(graph):
        """Compile the plan through a short run; return the counts."""
        BitplaneSkeletonSim(graph, batch=2,
                            telemetry=Telemetry.metrics_only()).run(3)
        return STATS.compiles, STATS.plan_hits

    @pytest.mark.parametrize("graph", [
        pipeline(3, relays_per_hop=2),
        _all_relays(pipeline(3, relays_per_hop=2), "half"),
    ], ids=["one-pass", "sweep-with-ambiguity-probe"])
    def test_single_clock_runs_share_one_plan(self, graph):
        compiles, hits = self._compile_once(graph)
        runs = [
            # A different cycle count; default scripts.
            ([{}] * 2, [{}] * 2, 41),
            # Five planes; sink spans 5, 7 and 35; a stalled sink and
            # scripted sources make the source hold tokens.
            ([{}, {"out": (True, False, False, True, True)},
              {"out": (False,) * 6 + (True,)}, {"out": (True,)},
              {"out": (True, True, False, False, True)}],
             [{}, {"src": (True, False, True)}, {"src": (False, True)},
              {"src": (True, True, False, True)}, {}], 97),
            # Three planes, one long sink script.
            ([{"out": (False,) * 119 + (True,)}, {},
              {"out": (True, False)}], [{}] * 3, 260),
        ]
        held = False
        for sink_maps, source_maps, cycles in runs:
            batch = _planes_match_scalar(graph, sink_maps, source_maps,
                                         cycles)
            held |= any(any(holds) for holds in batch._src_holds)
        assert held, "no run exercised the held-source path"
        assert STATS.compiles == compiles
        assert STATS.plan_hits == hits + len(runs)

    def test_gals_runs_share_one_plan(self):
        graph = parse_topology("gals-chain:rates=1+1/2+1/3,stages=2")
        bridges = lower(graph).bridge_names
        compiles, hits = self._compile_once(graph)
        runs = [
            ([{}] * 3, [{}] * 3, 58, [(1, 0, 4, +1, 9), (2, 1, 7, -1, 30)]),
            ([{"out": (False, True, True)}, {}, {"out": (True,)}, {}],
             [{"src": (True, False)}, {}, {"src": (False, True, True)},
              {}], 131,
             [(3, bridges[-1], 20, +5, 1), (3, bridges[-1], 20, -1, 1),
              (1, bridges[0], 60, +1, 71)]),
        ]
        for sink_maps, source_maps, cycles, pokes in runs:
            _planes_match_scalar(graph, sink_maps, source_maps, cycles,
                                 pokes)
        assert STATS.compiles == compiles
        assert STATS.plan_hits == hits + len(runs)

    def test_sink_span_beyond_the_expanded_schedule(self):
        """An lcm span over 4,096 cycles packs the stop word per cycle."""
        graph = pipeline(3, relays_per_hop=2)
        sink_maps = [{"out": tuple(i % 5 == 0 for i in range(61))},
                     {"out": tuple(i % 3 == 1 for i in range(71))},
                     {}]
        batch = _planes_match_scalar(graph, sink_maps, [{}] * 3, 150)
        assert batch._sink_sched[0] is None

    def test_campaigns_after_a_short_warm_up(self):
        """A short campaign compiles the plan; a long strict one that
        reuses it must still match the scalar backend byte for byte."""
        from repro.inject import skeleton_campaign

        graph = parse_topology("figure2:relays=3")
        kwargs = dict(classes=("stop", "void"), exhaustive=True)
        skeleton_campaign(graph, cycles=120, window=(10, 18), **kwargs)
        hits = STATS.plan_hits
        reports = [
            skeleton_campaign(graph, cycles=600, window=(90, 120),
                              strict=True, backend=backend, **kwargs)
            for backend in ("auto", "scalar")]
        assert STATS.plan_hits == hits + 1
        assert reports[0].backend == "bitsim"
        assert reports[0].to_json() == reports[1].to_json()


def _split_run(graph, variant, fixpoint, sink_map, source_map,
               cycles=60):
    """A one-plane plan run as ``run(a); run(b)`` lands exactly where
    ``a + b`` scalar steps do: registers, histories, ambiguity cycles
    and the metrics snapshot (counters included)."""
    scalar = SkeletonSim(graph, sink_patterns=sink_map,
                         source_patterns=source_map, variant=variant,
                         fixpoint=fixpoint,
                         telemetry=Telemetry.metrics_only())
    for _ in range(cycles):
        scalar.step()
    for split in (0, 1, cycles // 2, cycles):
        compiled = BitplaneSkeletonSim(
            graph, [sink_map], source_patterns=[source_map],
            variant=variant, fixpoint=fixpoint,
            telemetry=Telemetry.metrics_only())
        compiled.run(split)
        compiled.run(cycles - split)
        ctx = (graph.name, variant.name, fixpoint, split)
        for name in ("shell_reg", "rs_main", "rs_aux", "rs_stop_reg"):
            assert _column_bits(getattr(compiled, name), 0) \
                == tuple(getattr(scalar, name)), (name, ctx)
        assert _column_occupancy(compiled, 0) \
            == tuple(scalar.bridge_occ), ctx
        assert [row[0] for row in compiled.src_phase] \
            == scalar.src_phase, ctx
        assert [_column_bits(words, 0)
                for words in compiled._fire_history] \
            == scalar.fire_history, ctx
        assert compiled.accept_history(0) == scalar.accept_history, ctx
        assert compiled.ambiguous_cycles[0] == scalar.ambiguous_cycles, ctx
        assert _column_counters(compiled, 0) == (
            scalar.stop_assertions_total,
            scalar.stops_on_voids_total,
            scalar.internal_stops_on_voids_total), ctx
        assert compiled.metrics_snapshot(0) == scalar.metrics_snapshot(), \
            ctx


class TestCodegenLockstep:
    """The compiled one-plane plan (``repro.skeleton.codegen`` at batch
    width 1, plain-int counters) against the scalar reference, over a
    run split anywhere.  ``TestLockstepMatrix`` already steps the same
    plan cycle by cycle; this checks what one ``run_cycles`` call keeps
    in locals and writes back."""

    @pytest.mark.parametrize("graph", _graph_matrix(),
                             ids=lambda g: g.name)
    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: v.name.lower())
    def test_least_fixpoint(self, graph, variant):
        for sink_map, source_map in _scripts_for(graph):
            _split_run(graph, variant, "least", sink_map, source_map)

    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: v.name.lower())
    def test_greatest_fixpoint_on_ambiguous_graphs(self, variant):
        for graph in (_all_relays(pipeline(3), "half"),
                      ring(2, relays_per_arc=[["half"], ["half"]])):
            for sink_map, source_map in _scripts_for(graph):
                _split_run(graph, variant, "greatest", sink_map,
                           source_map)

    @pytest.mark.parametrize("graph", _graph_matrix(),
                             ids=lambda g: g.name)
    def test_run_to_periodicity_matches(self, graph):
        for sink_map, source_map in _scripts_for(graph):
            ref = SkeletonSim(graph, sink_patterns=sink_map,
                              source_patterns=source_map).run()
            got, = BitplaneSkeletonSim(
                graph, [sink_map],
                source_patterns=[source_map]).run_to_period()
            assert dataclasses.asdict(got) == dataclasses.asdict(ref), \
                graph.name


class TestBackendApi:
    """select() must hide the engine choice without changing results."""

    def test_selection_policy(self):
        graph = pipeline(2)
        assert isinstance(select(graph, batch=1), ScalarBackend)
        # "auto" runs every batch wider than one on bit planes.
        assert isinstance(select(graph, batch=4), BitplaneBackend)
        assert isinstance(select(graph, batch=200), BitplaneBackend)
        assert isinstance(select(graph, batch=4, backend="scalar"),
                          ScalarBackend)
        # One instance on bit planes runs the compiled one-plane plan
        # (plain counters); wider batches run vertical counters.
        handle = select(graph, batch=1, backend="bitsim")
        assert isinstance(handle, BitplaneBackend)
        assert handle.sim._plan.key[0] == "plain"
        assert select(graph, batch=4).sim._plan.key[0] == "vertical"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_script_target_rejected_by_all(self, backend):
        """Input validation must not depend on the engine picked."""
        with pytest.raises(ValueError, match="unknown script target"):
            select(pipeline(2), sink_patterns=[{"nope": (True,)}],
                   backend=backend)
        with pytest.raises(ValueError, match="unknown script target"):
            select(pipeline(2), source_patterns=[{"nope": (True,)}],
                   backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_per_instance_accessors_check_the_batch_bound(self, backend):
        """An instance outside ``[0, batch)`` raises the same
        ``IndexError`` on every engine: never another instance's data,
        never a wrapped negative index."""
        graph = parse_topology("gals-chain:rates=1+1/2")
        handle = select(graph, batch=2, backend=backend)
        handle.run_cycles(6)
        for instance in (2, 5, -1):
            with pytest.raises(IndexError,
                               match=f"instance {instance} out of range "
                                     f"for batch 2"):
                handle.accept_history(instance)
            with pytest.raises(IndexError, match="out of range"):
                handle.poke_bridge(instance, 0, 1, +1)
        assert len(handle.accept_history(1)) == 6
        handle.poke_bridge(1, 0, 1, +1)

    @pytest.mark.parametrize("bad", [2, 5, -1])
    def test_bitplane_accessors_check_the_batch_bound(self, bad):
        sim = BitplaneSkeletonSim(figure2(), batch=2)
        sim.run(5)
        for read in (lambda: sim.fire_count(0, bad),
                     lambda: sim.accept_count(0, bad),
                     lambda: sim.accept_history(bad),
                     lambda: sim.metrics_snapshot(bad)):
            with pytest.raises(IndexError,
                               match=f"instance {bad} out of range "
                                     f"for batch 2"):
                read()

    @pytest.mark.parametrize("backend", ["auto", "scalar", "bitsim"])
    def test_periodicity_timeout_is_typed(self, backend):
        """Every engine raises the structured timeout analyze catches."""
        handle = select(pipeline(4, relays_per_hop=2), batch=2,
                        sink_patterns=[{"out": (True, False, False)}, {}],
                        backend=backend)
        with pytest.raises(PeriodicityTimeout) as err:
            handle.run(max_cycles=1)
        assert err.value.max_cycles == 1
        assert err.value.graph == handle.graph.name

    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: v.name.lower())
    def test_backends_agree_through_select(self, variant):
        graph = figure1()
        patterns = [{}, {"out": (False, True)},
                    {"out": (False, False, True)}]
        counts = {}
        for backend in BACKENDS:
            handle = select(graph, variant, sink_patterns=patterns,
                            backend=backend)
            results = handle.run()
            handle2 = select(graph, variant, sink_patterns=patterns,
                             backend=backend)
            handle2.run_cycles(300)
            counts[backend] = (
                [(r.transient, r.period, r.shell_fires,
                  r.sink_accepts) for r in results],
                np.asarray(handle2.fire_counts()).tolist(),
                np.asarray(handle2.accept_counts()).tolist(),
                np.asarray(handle2.stop_assertion_counts()).tolist(),
                np.asarray(handle2.void_stop_counts()).tolist(),
            )
        for backend in BACKENDS[1:]:
            assert counts[backend] == counts["scalar"], backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scripted_sources_through_select(self, backend):
        graph = pipeline(2)
        handle = select(graph, batch=2, backend=backend,
                        source_patterns=[{}, {"src": (True, False)}])
        results = handle.run()
        rates = [r.shell_fires["S0"] / r.period for r in results]
        assert rates[0] == 1
        assert rates[1] == 0.5


def _bench_graphs():
    """Every benchmark workload topology, as (id, graph) pairs."""
    cases = [("figure1", workloads.figure1_workload()),
             ("figure2", workloads.figure2_workload())]
    cases += [(g.name, g) for _s, _r, g in workloads.ring_sweep()]
    cases += [(g.name, g) for _i, _m, g in workloads.reconvergent_sweep()]
    cases += [(g.name, g) for _d, _r, g in workloads.tree_sweep()]
    cases += [(f"comp_{i}", g)
              for i, (_label, g) in enumerate(workloads.composition_cases())]
    cases += [(g.name, g) for _c, _e, g in workloads.deadlock_suite()]
    cases += [(g.name, g) for g in workloads.pipeline_scaling((4, 16))]
    return cases


class TestBenchWorkloadSweep:
    """Every bench workload topology, every variant, every backend.

    The speedup and campaign benchmarks trust whichever backend they
    run on; this sweep is the license: fixed-cycle runs must agree on
    firing/acceptance counts, the stop-locality counters and the full
    metrics snapshot, for every workload the bench suite can generate.
    (Periodicity agreement is covered per relay-kind by
    TestRunToPeriod; fixed-cycle counters keep this sweep fast.)
    """

    @pytest.mark.parametrize("graph", [g for _id, g in _bench_graphs()],
                             ids=[i for i, _g in _bench_graphs()])
    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: v.name.lower())
    def test_counters_and_metrics_agree(self, graph, variant):
        combos = _scripts_for(graph)
        sink_patterns = [sk for sk, _so in combos]
        source_patterns = [so for _sk, so in combos]
        observed = {}
        for backend in BACKENDS:
            handle = select(graph, variant,
                            sink_patterns=sink_patterns,
                            source_patterns=source_patterns,
                            backend=backend,
                            telemetry=Telemetry.metrics_only())
            handle.run_cycles(48)
            observed[backend] = (
                np.asarray(handle.fire_counts()).tolist(),
                np.asarray(handle.accept_counts()).tolist(),
                np.asarray(handle.stop_assertion_counts()).tolist(),
                np.asarray(handle.void_stop_counts()).tolist(),
                handle.metrics_snapshots(),
            )
        for backend in BACKENDS[1:]:
            assert observed[backend] == observed["scalar"], \
                (backend, graph.name, variant.name)


class TestMetricsParity:
    """metrics_snapshots() must be engine-independent, per instance."""

    @pytest.mark.parametrize("graph", _graph_matrix(),
                             ids=lambda g: g.name)
    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: v.name.lower())
    def test_snapshots_identical_through_select(self, graph, variant):
        combos = _scripts_for(graph)
        sink_patterns = [sk for sk, _so in combos]
        source_patterns = [so for _sk, so in combos]
        snapshots = {}
        for backend in BACKENDS:
            handle = select(graph, variant,
                            sink_patterns=sink_patterns,
                            source_patterns=source_patterns,
                            backend=backend,
                            telemetry=Telemetry.metrics_only())
            handle.run_cycles(80)
            snapshots[backend] = handle.metrics_snapshots()
        for backend in BACKENDS[1:]:
            assert snapshots[backend] == snapshots["scalar"], \
                (backend, graph.name)

    def test_snapshot_without_telemetry_keeps_core_counters(self):
        """Even uninstrumented runs expose the cheap counters."""
        sim = SkeletonSim(figure1())
        for _ in range(30):
            sim.step()
        snapshot = sim.metrics_snapshot()
        assert snapshot["skeleton/cycles"]["value"] == 30
        assert any(key.startswith("skeleton/shell/") for key in snapshot)
        # Per-channel stalls and occupancy histograms need telemetry.
        assert not any(key.startswith("skeleton/channel/")
                       for key in snapshot)

    def test_instrumented_snapshot_has_channel_and_relay_metrics(self):
        sim = SkeletonSim(figure1(), telemetry=Telemetry.metrics_only(),
                          sink_patterns={"out": (False, False, True)})
        for _ in range(30):
            sim.step()
        snapshot = sim.metrics_snapshot()
        stalls = {k: v for k, v in snapshot.items()
                  if k.startswith("skeleton/channel/")}
        hists = {k: v for k, v in snapshot.items()
                 if k.startswith("skeleton/relay/")}
        assert stalls and hists
        assert sum(v["value"] for v in stalls.values()) > 0
        for hist in hists.values():
            assert hist["type"] == "histogram"
            assert hist["total"] == 30


class TestInjectCampaignParity:
    """Batched fault campaigns must classify identically per backend."""

    @pytest.mark.parametrize("variant", VARIANTS,
                             ids=lambda v: v.name.lower())
    def test_skeleton_campaign_backend_parity(self, variant):
        from repro.inject import skeleton_campaign

        graph = figure2()
        kwargs = dict(variant=variant, classes=("stop", "void"),
                      cycles=64, samples=24, seed=11)
        reports = {backend: skeleton_campaign(graph, backend=backend,
                                              **kwargs)
                   for backend in BACKENDS}
        assert reports["scalar"].backend == "scalar"
        assert reports["bitsim"].backend == "bitsim"
        baseline = reports["scalar"]
        for backend in BACKENDS[1:]:
            report = reports[backend]
            assert ([(r.spec.label(), r.verdict)
                     for r in report.results]
                    == [(r.spec.label(), r.verdict)
                        for r in baseline.results]), backend
            assert report.skipped == baseline.skipped, backend
            # Schema v2: the backend lives in the execution header, so
            # the default payload — and therefore the JSON bytes — is
            # identical across backends.
            assert report.to_payload() == baseline.to_payload(), backend
            assert report.to_json() == baseline.to_json(), backend

    def test_execution_header_carries_backend(self):
        from repro.inject import skeleton_campaign

        report = skeleton_campaign(figure2(), cycles=64, samples=8,
                                   seed=3, backend="bitsim")
        payload = report.to_payload(execution=True)
        assert payload["execution"]["backend"] == "bitsim"
        assert "backend" not in report.to_payload()

    def test_engines_model_the_fault_at_different_points(self):
        """The two engines express the *same spec* at different points,
        and the split is part of the contract: the LID engine forces
        the wire after settle (the sink's own behaviour is untouched,
        so a stuck stop makes it re-read the held token — duplication),
        while the skeleton perturbs the sink's script itself (producer
        and consumer coherently stop — back-pressure wedges the ring).
        A no-op fault must be masked identically on both."""
        from repro.inject import (
            FaultSpec,
            run_campaign,
            skeleton_campaign,
        )

        graph = figure2()
        faults = [FaultSpec("stop-stuck-1", "S0->out#5", 8, 0),
                  FaultSpec("stop-stuck-0", "S0->out#5", 8, 0)]
        kwargs = dict(variant=ProtocolVariant.CASU, cycles=64,
                      faults=faults)
        lid = run_campaign(graph, monitors=False, **kwargs)
        skel = skeleton_campaign(graph, backend="bitsim", **kwargs)
        lid_verdicts = {r.spec.label(): r.verdict for r in lid.results}
        skel_verdicts = {r.spec.label(): r.verdict
                         for r in skel.results}
        assert set(lid_verdicts) == set(skel_verdicts)
        stuck1 = "stop-stuck-1@S0->out#5@c8stuck"
        stuck0 = "stop-stuck-0@S0->out#5@c8stuck"
        assert lid_verdicts[stuck1] == "silent-corruption"
        assert skel_verdicts[stuck1] == "deadlock"
        assert lid_verdicts[stuck0] == skel_verdicts[stuck0] == "masked"
