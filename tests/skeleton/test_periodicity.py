"""Tests for the shared periodicity detector and transient bounds.

Both skeleton engines run to periodicity through one detector
(:func:`repro.skeleton.periodicity.detect_period`), so comparing the
engines with each other cannot catch a detector bug: both would give
the same wrong answer.  :class:`TestAgainstReference` checks each
engine against a brute-force reference instead: record the exact
scalar state of every cycle over a long horizon, then search it for
the first cycle from which the run repeats.
"""

from types import SimpleNamespace

import pytest

from repro.errors import PeriodicityTimeout
from repro.graph import (
    figure1,
    figure2,
    parse_topology,
    pipeline,
    reconvergent,
    ring,
    tree,
)
from repro.skeleton import (
    BitplaneSkeletonSim,
    SkeletonSim,
    detect_period,
    transient_and_period,
    transient_bound,
)

from .test_backend_conformance import (
    _gals_columns,
    _graph_matrix,
    _scripts_for,
)
from .test_gals import GALS_SPECS


class _Toy:
    """A one-instance process ``x -> advance(x)`` in detector shape."""

    graph = SimpleNamespace(name="toy")

    def __init__(self, x, advance, quiet_from=0):
        self.x = x
        self.advance = advance
        self.cycle = 0
        self.quiet_from = [quiet_from]

    def step(self):
        self.x = self.advance(self.x)
        self.cycle += 1

    def state_keys(self, instances):
        return [self.x]


class TestDetectPeriod:
    def test_pure_cycle(self):
        assert detect_period(_Toy(0, lambda x: (x + 1) % 7)) == [(0, 7)]

    def test_rho_shape(self):
        # 0,1,2,3,4,3,4,3,4,... transient 3, period 2
        toy = _Toy(0, lambda x: x + 1 if x < 4 else 3)
        assert detect_period(toy) == [(3, 2)]

    def test_fixed_point(self):
        assert detect_period(_Toy(5, lambda x: x)) == [(0, 1)]

    def test_timeout(self):
        toy = _Toy(0, lambda x: x + 1)  # never repeats
        with pytest.raises(PeriodicityTimeout) as err:
            detect_period(toy, max_cycles=50)
        assert isinstance(err.value, TimeoutError)
        assert str(err.value) == ("toy: no periodicity within 50 cycles "
                                  "(state space larger than expected)")
        assert toy.cycle == 50

    def test_keys_count_from_the_current_cycle(self):
        toy = _Toy(0, lambda x: (x + 1) % 7)
        for _ in range(10):
            toy.step()
        assert detect_period(toy) == [(10, 7)]

    def test_no_regime_before_quiet_from(self):
        # The keys repeat from cycle 0, but cycle 4 is still to come.
        toy = _Toy(0, lambda x: 1 - x, quiet_from=4)
        assert detect_period(toy) == [(4, 2)]


def _reference(states, lo):
    """Brute force: the first cycle ``t >= lo`` from which the recorded
    *states* repeat with some period, and the least such period.

    A candidate must hold over the whole recorded horizon and show at
    least three periods, so a regime that a later poke breaks is not
    one.
    """
    horizon = len(states)
    for t in range(lo, horizon):
        for period in range(1, (horizon - t) // 3 + 1):
            if all(states[k] == states[k + period]
                   for k in range(t, horizon - period)):
                return t, period
    raise AssertionError("no periodic regime in the recorded horizon")


def _expected(graph, sink_map, source_map, pokes=(), start=0):
    """What a run started at cycle *start* must report, by brute force
    over an exact scalar state record from reset: ``(transient,
    period, shell fires, sink accepts)``.  *pokes* lists ``(bridge,
    cycle, delta, duration)``; no regime may start before they end."""
    sim = SkeletonSim(graph, sink_patterns=sink_map,
                      source_patterns=source_map)
    for bridge, at, delta, duration in pokes:
        sim.poke_bridge(bridge, at, delta, duration)
    lo = max([start] + [at + duration for _b, at, _d, duration in pokes])
    states = [sim.state()]
    for _ in range(lo + 300):
        sim.step()
        states.append(sim.state())
    transient, period = _reference(states, lo)
    window = range(transient, transient + period)
    fires = {name: sum(sim.fire_history[c][i] for c in window)
             for i, name in enumerate(sim.shell_names)}
    accepts = {name: sum(sim.accept_history[c][i] for c in window)
               for i, name in enumerate(sim.sink_names)}
    return transient, period, fires, accepts


def _observed(result):
    return (result.transient, result.period, result.shell_fires,
            result.sink_accepts)


class TestAgainstReference:
    """Each engine's run against the brute-force reference."""

    @pytest.mark.parametrize("start", [0, 1, 3, 7])
    @pytest.mark.parametrize("graph", _graph_matrix(),
                             ids=lambda g: g.name)
    def test_scalar_run(self, graph, start):
        for sink_map, source_map in _scripts_for(graph):
            sim = SkeletonSim(graph, sink_patterns=sink_map,
                              source_patterns=source_map)
            for _ in range(start):
                sim.step()
            assert _observed(sim.run()) == _expected(
                graph, sink_map, source_map, start=start), \
                (graph.name, sink_map, source_map)

    @pytest.mark.parametrize("start", [0, 1, 3, 7])
    @pytest.mark.parametrize("graph", _graph_matrix(),
                             ids=lambda g: g.name)
    def test_bitplane_run_to_period(self, graph, start):
        combos = _scripts_for(graph)
        batch = BitplaneSkeletonSim(
            graph, [sinks for sinks, _ in combos],
            source_patterns=[sources for _, sources in combos])
        for _ in range(start):
            batch.step()
        for (sink_map, source_map), result in zip(combos,
                                                  batch.run_to_period()):
            assert _observed(result) == _expected(
                graph, sink_map, source_map, start=start), \
                (graph.name, sink_map, source_map)

    @pytest.mark.parametrize("start", [0, 7])
    @pytest.mark.parametrize("spec", GALS_SPECS)
    def test_gals_with_pokes(self, spec, start):
        """Every poked column of the conformance suite, on both
        engines; the bit-plane engine runs them as one batch."""
        graph = parse_topology(spec)
        sink_maps, source_maps, pokes = _gals_columns(graph, 120)
        scalars = [SkeletonSim(graph, sink_patterns=sinks,
                               source_patterns=sources)
                   for sinks, sources in zip(sink_maps, source_maps)]
        batch = BitplaneSkeletonSim(graph, sink_maps,
                                    source_patterns=source_maps)
        for col, bridge, at, delta, duration in pokes:
            scalars[col].poke_bridge(bridge, at, delta, duration)
            batch.poke_bridge(col, bridge, at, delta, duration)
        for _ in range(start):
            batch.step()
            for scalar in scalars:
                scalar.step()
        for col, result in enumerate(batch.run_to_period()):
            expected = _expected(
                graph, sink_maps[col], source_maps[col],
                [poke[1:] for poke in pokes if poke[0] == col], start)
            assert _observed(result) == expected, (spec, col)
            assert _observed(scalars[col].run()) == expected, (spec, col)

    @pytest.mark.parametrize("engine", ["scalar", "bitsim"])
    def test_poke_that_deadlocks_the_ring(self, engine):
        """An underflow poke still to come must not be hidden by an
        earlier live regime: it wedges the ring for good."""
        graph = parse_topology("gals-ring:rates=1+1/2")
        poke = (0, 60, -1, 30)
        if engine == "scalar":
            sim = SkeletonSim(graph)
            sim.poke_bridge(*poke)
            result = sim.run()
        else:
            sim = BitplaneSkeletonSim(graph, [{}])
            sim.poke_bridge(0, *poke)
            result, = sim.run_to_period()
        assert result.deadlocked
        assert result.transient >= 90
        assert _observed(result) == _expected(graph, {}, {}, [poke])

    def test_timeout_names_the_pending_planes(self):
        batch = BitplaneSkeletonSim(
            pipeline(4, relays_per_hop=2),
            [{}, {"out": (True, False, False)}])
        with pytest.raises(PeriodicityTimeout) as err:
            batch.run_to_period(max_cycles=3)
        assert str(err.value).startswith("pipeline4x2: instances [")
        assert err.value.max_cycles == 3


class TestSystemPeriodicity:
    @pytest.mark.parametrize("graph,expected_period", [
        (figure1(), 5),
        (figure2(), 2),
        (pipeline(3), 1),
        # The register-state period can be a multiple of the output
        # period: this system runs at T=2/3 with a state period of 6.
        (reconvergent(long_relays=(2, 1), short_relays=1), 6),
    ])
    def test_known_periods(self, graph, expected_period):
        _transient, period = transient_and_period(graph)
        assert period == expected_period

    def test_tree_transient_grows_with_depth(self):
        t1, _ = transient_and_period(tree(1))
        t3, _ = transient_and_period(tree(3))
        assert t3 > t1


class TestTransientEstimate:
    """The linear predicted-upfront estimate (see EXP-D3)."""

    @pytest.mark.parametrize("graph", [
        figure1(), figure2(), pipeline(4, relays_per_hop=2),
        tree(3), ring(3, relays_per_arc=2),
        reconvergent(long_relays=(3, 1), short_relays=1),
    ])
    def test_estimate_dominates_measurement(self, graph):
        from repro.skeleton import transient_estimate

        transient, _period = transient_and_period(graph)
        assert transient <= transient_estimate(graph)

    def test_estimate_below_quadratic_bound(self):
        from repro.skeleton import transient_bound, transient_estimate

        for graph in (figure1(), tree(3), ring(3, relays_per_arc=2)):
            assert transient_estimate(graph) <= transient_bound(graph)

    def test_random_sweep_within_estimate(self):
        """Deterministic fuzz (fixed seeds): 40 random systems."""
        from repro.graph import random_dag, random_loopy
        from repro.skeleton import transient_estimate

        graphs = [random_dag(seed, shells=5) for seed in range(20)]
        graphs += [random_loopy(seed, shells=4) for seed in range(20)]
        for graph in graphs:
            transient, _period = transient_and_period(graph)
            assert transient <= transient_estimate(graph), graph.name

    def test_tree_estimate_is_longest_path_plus_one(self):
        from repro.analysis import longest_register_path
        from repro.skeleton import transient_estimate

        graph = tree(3, relays_per_hop=2)
        assert transient_estimate(graph) == \
            longest_register_path(graph) + 1


class TestTransientBound:
    @pytest.mark.parametrize("graph", [
        figure1(), figure2(), pipeline(4, relays_per_hop=2),
        tree(3), ring(3, relays_per_arc=2),
        reconvergent(long_relays=(3, 1), short_relays=1),
    ])
    def test_bound_dominates_measurement(self, graph):
        transient, _period = transient_and_period(graph)
        assert transient <= transient_bound(graph)

    def test_bound_is_cheap_to_compute(self):
        bound = transient_bound(figure1())
        assert isinstance(bound, int) and bound > 0
