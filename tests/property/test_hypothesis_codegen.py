"""Property-based tests for the compiled one-plane skeleton plan.

A bit-plane batch of width 1 runs the plan :mod:`repro.skeleton.
codegen` emits with plain-int counters.  Random topologies, scripts,
variants and fixpoints, locked step by step against the scalar
reference — the fuzzing layer above the fixed conformance matrix in
``tests/skeleton/test_backend_conformance.py``.  Both entry points are
exercised: per-cycle ``step()`` and ``run_cycles`` split anywhere
(state held in locals across each call, counters rippled in at its
end).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lid.variant import ProtocolVariant
from repro.obs import Telemetry
from repro.skeleton import BitplaneSkeletonSim, SkeletonSim

pytestmark = pytest.mark.slow

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

stop_patterns = st.lists(st.booleans(), min_size=1, max_size=5).map(tuple)
source_patterns = st.lists(st.booleans(), min_size=1, max_size=4).map(
    lambda bits: tuple(bits) if any(bits) else (True,))


def _random_graph(seed, loopy):
    from repro.graph import random_dag
    from repro.graph.random_gen import random_loopy

    if loopy:
        return random_loopy(seed=seed, shells=3)
    return random_dag(seed, shells=4, half_probability=0.3)


def _bits(words):
    return tuple(bool(word & 1) for word in words)


def _state(sim):
    """A one-plane sim's state in the scalar ``state()`` layout."""
    return (_bits(sim.shell_reg), _bits(sim.rs_main), _bits(sim.rs_aux),
            _bits(sim.rs_stop_reg),
            tuple(sum(word & 1 for word in ge) for ge in sim.bridge_ge),
            tuple(row[0] for row in sim.src_phase))


def _reference(sim):
    return (tuple(sim.shell_reg), tuple(sim.rs_main), tuple(sim.rs_aux),
            tuple(sim.rs_stop_reg), tuple(sim.bridge_occ),
            tuple(sim.src_phase))


def _counters(sim):
    return (sim.stop_assertions.value(0), sim.stops_on_voids.value(0),
            sim.internal_stops_on_voids.value(0))


def _reference_counters(sim):
    return (sim.stop_assertions_total, sim.stops_on_voids_total,
            sim.internal_stops_on_voids_total)


@given(seed=st.integers(0, 5_000), loopy=st.booleans(),
       variant=st.sampled_from(list(ProtocolVariant)),
       fixpoint=st.sampled_from(["least", "greatest"]),
       data=st.data())
@settings(**SETTINGS)
def test_codegen_lockstep_with_scalar_on_random_topologies(
        seed, loopy, variant, fixpoint, data):
    """Per-cycle fires, accepts, state and counters equal to the
    reference."""
    graph = _random_graph(seed, loopy)
    sinks = [n.name for n in graph.sinks()]
    sources = [n.name for n in graph.sources()]
    sink_map = {name: data.draw(stop_patterns) for name in sinks}
    source_map = {name: data.draw(source_patterns) for name in sources}
    compiled = BitplaneSkeletonSim(graph, [sink_map],
                                   source_patterns=[source_map],
                                   variant=variant, fixpoint=fixpoint)
    scalar = SkeletonSim(graph, sink_patterns=sink_map,
                         source_patterns=source_map, variant=variant,
                         fixpoint=fixpoint)
    for cycle in range(60):
        fires, accepts = compiled.step()
        assert (_bits(fires), _bits(accepts)) == scalar.step(), cycle
        assert _state(compiled) == _reference(scalar), cycle
        assert _counters(compiled) == _reference_counters(scalar), cycle
    assert compiled.ambiguous_cycles[0] == scalar.ambiguous_cycles


@given(seed=st.integers(0, 5_000), loopy=st.booleans(),
       variant=st.sampled_from(list(ProtocolVariant)),
       split=st.integers(0, 60),
       data=st.data())
@settings(**SETTINGS)
def test_batched_run_cycles_matches_stepping(seed, loopy, variant,
                                             split, data):
    """run_cycles(a); run_cycles(b) lands exactly where a+b steps do,
    wherever the call boundary falls — counters and the metrics
    snapshot included."""
    graph = _random_graph(seed, loopy)
    sinks = [n.name for n in graph.sinks()]
    sources = [n.name for n in graph.sources()]
    sink_map = {name: data.draw(stop_patterns) for name in sinks}
    source_map = {name: data.draw(source_patterns) for name in sources}
    batched = BitplaneSkeletonSim(graph, [sink_map],
                                  source_patterns=[source_map],
                                  variant=variant,
                                  telemetry=Telemetry.metrics_only())
    batched.run(split)
    batched.run(60 - split)
    scalar = SkeletonSim(graph, sink_patterns=sink_map,
                         source_patterns=source_map, variant=variant,
                         telemetry=Telemetry.metrics_only())
    for _ in range(60):
        scalar.step()
    assert _state(batched) == _reference(scalar)
    assert [_bits(words) for words in batched._fire_history] \
        == scalar.fire_history
    assert batched.accept_history(0) == scalar.accept_history
    assert batched.ambiguous_cycles[0] == scalar.ambiguous_cycles
    assert _counters(batched) == _reference_counters(scalar)
    assert batched.metrics_snapshot(0) == scalar.metrics_snapshot()
