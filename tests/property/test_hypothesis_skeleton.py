"""Property-based tests tying the three simulation engines together.

The scalar skeleton, the bit-plane batch skeleton and the full
data-carrying simulator implement the same semantics three times over;
hypothesis hunts for inputs where they disagree.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph import pipeline, random_dag, tree
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


@given(pattern=stop_patterns)
@settings(**SETTINGS)
def test_batch_matches_scalar_on_pipeline(pattern):
    graph = pipeline(3, relays_per_hop=2)
    cycles = 120
    batch = BitplaneSkeletonSim(graph, [{"out": pattern}])
    batch.run(cycles)
    scalar = SkeletonSim(graph, sink_patterns={"out": pattern},
                         detect_ambiguity=False)
    accepted = 0
    for _ in range(cycles):
        _f, acc = scalar.step()
        accepted += sum(acc)
    assert batch.accept_count(0, 0) == accepted


@given(seed=st.integers(0, 5_000), pattern=stop_patterns)
@settings(**SETTINGS)
def test_batch_matches_scalar_on_random_dags(seed, pattern):
    graph = random_dag(seed, shells=4, half_probability=0.0)
    sinks = [n.name for n in graph.sinks()]
    cycles = 80
    batch = BitplaneSkeletonSim(graph, [{sinks[0]: pattern}])
    batch.run(cycles)
    scalar = SkeletonSim(graph, sink_patterns={sinks[0]: pattern},
                         detect_ambiguity=False)
    fires = [0] * len(scalar.shell_names)
    for _ in range(cycles):
        f, _acc = scalar.step()
        for i, fired in enumerate(f):
            fires[i] += fired
    for i, name in enumerate(scalar.shell_names):
        j = batch.shell_names.index(name)
        assert batch.fire_count(j, 0) == fires[i], name


@given(src=source_patterns, sink=stop_patterns)
@settings(**SETTINGS)
def test_scalar_matches_full_simulation(src, sink):
    """Skeleton token counts equal the elaborated system's delivery."""
    graph = tree(2)
    sources = {n.name: src for n in graph.sources()}
    cycles = 90
    scalar = SkeletonSim(graph, source_patterns=sources,
                         sink_patterns={"out": sink},
                         detect_ambiguity=False)
    accepted = 0
    for _ in range(cycles):
        _f, acc = scalar.step()
        accepted += sum(acc)

    # Full simulation with matching scripts.
    from repro.lid.token import Token, VOID

    def stream_factory(pattern=src):
        def gen():
            k = 0
            while True:
                for offered in pattern:
                    if offered:
                        yield Token(k)
                        k += 1
                    else:
                        yield VOID
        return gen()

    for node in graph.sources():
        node.stream_factory = stream_factory
    graph.nodes["out"].stop_script = (
        lambda c, pattern=sink: pattern[c % len(pattern)])
    system = graph.elaborate()
    system.run(cycles)
    assert len(system.sinks["out"].received) == accepted


@given(seed=st.integers(0, 5_000))
@settings(**SETTINGS)
def test_stops_on_voids_vanish_under_refinement(seed):
    """The refinement's locality claim, fuzzed (EXP-T7).

    Neither total stop counts nor total stops-on-voids are monotone
    between the variants — the refined system makes different progress,
    so scripted sink stops land on different cycles (hypothesis found
    counterexamples to both naive formulations).  The precise invariant
    is: under the refinement, **no protocol-generated stop ever lands
    on a void** — all residual stops-on-voids are on sink channels,
    where a script, not the protocol, asserted them.
    """
    from repro.lid.variant import ProtocolVariant

    graph = random_dag(seed, shells=4)
    sinks = {n.name: (False, True) for n in graph.sinks()}
    sim = SkeletonSim(graph, variant=ProtocolVariant.CASU,
                      sink_patterns=sinks, detect_ambiguity=False)
    for _ in range(100):
        sim.step()
    assert sim.internal_stops_on_voids_total == 0
