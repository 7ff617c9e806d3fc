"""Differential fuzzing of the batch backend against the scalar.

Random small graphs x random sink stop scripts x random source
availability scripts x both protocol variants: the batch engine (bit
planes, vectorized across instances) must reproduce the scalar
engine's per-shell firing counts, sink accepts and steady-state period
exactly.  This is the property-based arm of the conformance suite in
``tests/skeleton/test_backend_conformance.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph import random_dag, random_loopy
from repro.lid.variant import ProtocolVariant
from repro.skeleton import BitplaneSkeletonSim, SkeletonSim

pytestmark = pytest.mark.slow

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

stop_patterns = st.lists(st.booleans(), min_size=1, max_size=5).map(tuple)
avail_patterns = st.lists(st.booleans(), min_size=1, max_size=4).map(
    lambda bits: tuple(bits) if any(bits) else (True,))
variants = st.sampled_from([ProtocolVariant.CASU,
                            ProtocolVariant.CARLONI])


def _scalar_counts(graph, sink_map, source_map, variant, cycles):
    scalar = SkeletonSim(graph, sink_patterns=sink_map,
                         source_patterns=source_map, variant=variant,
                         detect_ambiguity=False)
    fires = [0] * len(scalar.shell_names)
    accepted = 0
    for _ in range(cycles):
        f, acc = scalar.step()
        for i, fired in enumerate(f):
            fires[i] += fired
        accepted += sum(acc)
    return scalar.shell_names, fires, accepted


@given(seed=st.integers(0, 5_000), sink=stop_patterns,
       src=avail_patterns, variant=variants)
@settings(**SETTINGS)
def test_batch_matches_scalar_on_random_dags(seed, sink, src, variant):
    """Feed-forward graphs with a random relay-station mix."""
    graph = random_dag(seed, shells=4, half_probability=0.4)
    sinks = [n.name for n in graph.sinks()]
    sources = [n.name for n in graph.sources()]
    sink_map = {sinks[0]: sink}
    source_map = {sources[0]: src} if sources else {}
    cycles = 80

    batch = BitplaneSkeletonSim(graph, [sink_map],
                                source_patterns=[source_map],
                                variant=variant, detect_ambiguity=False)
    batch.run(cycles)
    names, fires, accepted = _scalar_counts(graph, sink_map,
                                            source_map, variant,
                                            cycles)
    for i, name in enumerate(names):
        j = batch.shell_names.index(name)
        assert batch.fire_count(j, 0) == fires[i], name
    assert sum(batch.accept_count(j, 0)
               for j in range(len(batch.sink_names))) == accepted


@given(seed=st.integers(0, 5_000), sink=stop_patterns,
       variant=variants)
@settings(**SETTINGS)
def test_batch_matches_scalar_on_loopy_graphs(seed, sink, variant):
    """Graphs with feedback loops exercise the iterative fixpoint."""
    graph = random_loopy(seed, shells=4)
    sinks = [n.name for n in graph.sinks()]
    sink_map = {sinks[0]: sink} if sinks else {}
    cycles = 80

    batch = BitplaneSkeletonSim(graph, [sink_map], variant=variant,
                                detect_ambiguity=False)
    batch.run(cycles)
    names, fires, accepted = _scalar_counts(graph, sink_map, {},
                                            variant, cycles)
    for i, name in enumerate(names):
        j = batch.shell_names.index(name)
        assert batch.fire_count(j, 0) == fires[i], name
    assert sum(batch.accept_count(j, 0)
               for j in range(len(batch.sink_names))) == accepted


@given(seed=st.integers(0, 2_000), sink=stop_patterns,
       src=avail_patterns, variant=variants)
@settings(**SETTINGS)
def test_period_matches_scalar(seed, sink, src, variant):
    """Steady-state structure, not just totals: transient and period."""
    graph = random_dag(seed, shells=3, half_probability=0.3)
    sinks = [n.name for n in graph.sinks()]
    sources = [n.name for n in graph.sources()]
    sink_map = {sinks[0]: sink}
    source_map = {sources[0]: src} if sources else {}

    result = BitplaneSkeletonSim(
        graph, [sink_map], source_patterns=[source_map],
        variant=variant, detect_ambiguity=False).run_to_period()[0]
    ref = SkeletonSim(graph, sink_patterns=sink_map,
                      source_patterns=source_map, variant=variant,
                      detect_ambiguity=False).run()
    assert (result.transient, result.period) == (ref.transient,
                                                 ref.period)
    assert result.shell_fires == ref.shell_fires
    assert result.sink_accepts == ref.sink_accepts
