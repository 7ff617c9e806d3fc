"""Tests for externally driven skeleton stepping (``step_from``)."""

import itertools

import pytest

from repro.graph import figure1, figure2, gals_chain, gals_ring, pipeline
from repro.skeleton import SkeletonSim


def _registers(sim):
    """The register part of a scripted simulator's snapshot."""
    return sim.state()[:5]


def _all_envs(sim):
    return list(itertools.product(
        itertools.product((False, True), repeat=len(sim.source_names)),
        itertools.product((False, True), repeat=len(sim.sink_names))))


class TestRegisterState:
    def test_roundtrip(self):
        sim = SkeletonSim(figure1())
        for _ in range(7):
            sim.step()
        sim.reset()
        assert sim.initial_state == (_registers(sim), 0)

    def test_restored_state_evolves_identically(self):
        sim = SkeletonSim(figure1(), detect_ambiguity=False)
        for _ in range(4):
            sim.step()
        state = (_registers(sim), sim.cycle % sim.hyperperiod)
        first = [sim.step()[0] for _ in range(6)]
        second = []
        for _ in range(6):
            state, fires, _src_stops, _ambiguous = sim.step_from(
                state, [True] * len(sim.source_names),
                [False] * len(sim.sink_names))
            second.append(fires)
        assert first == second

    def test_snapshot_is_hashable(self):
        sim = SkeletonSim(pipeline(2))
        assert hash(sim.initial_state) == hash(sim.initial_state)
        following = sim.step_from(sim.initial_state, [True], [False])[0]
        assert hash(following) == hash(following)


class TestExternalStep:
    def test_argument_validation(self):
        sim = SkeletonSim(pipeline(2))
        with pytest.raises(ValueError, match="source"):
            sim.step_from(sim.initial_state, [], [False])
        with pytest.raises(ValueError, match="sink"):
            sim.step_from(sim.initial_state, [True], [])

    def test_withholding_source_stalls_first_shell(self):
        sim = SkeletonSim(pipeline(2))
        _state, fires, _stops, _amb = sim.step_from(
            sim.initial_state, [False], [False])
        assert fires[0] is False  # no input offered

    def test_offering_source_fires(self):
        sim = SkeletonSim(pipeline(2))
        _state, fires, _stops, _amb = sim.step_from(
            sim.initial_state, [True], [False])
        assert fires[0] is True

    def test_matches_scripted_step(self):
        """Driving the same env externally reproduces step() exactly."""
        pattern_src = (True, True, False)
        pattern_sink = (False, True)
        scripted = SkeletonSim(
            pipeline(3),
            source_patterns={"src": pattern_src},
            sink_patterns={"out": pattern_sink},
            detect_ambiguity=False,
        )
        external = SkeletonSim(pipeline(3), detect_ambiguity=False)
        state = external.initial_state
        src_pos = 0
        for cycle in range(40):
            # The scripted source presents pattern[phase]; when held
            # under stop the phase freezes, so re-reading the phase
            # after each step mirrors the hold contract exactly.
            offer = pattern_src[src_pos % len(pattern_src)]
            stop = pattern_sink[cycle % len(pattern_sink)]
            fires_a, _accepts = scripted.step()
            state, fires_b, _src_stops, _amb = external.step_from(
                state, [offer], [stop])
            assert fires_a == fires_b, cycle
            assert state == (_registers(scripted), 0), cycle
            src_pos = scripted.src_phase[0]

    @pytest.mark.parametrize("graph", [
        figure2(), gals_ring(("1", "1/2")),
        gals_chain(("1/3", "1"), depth=2),
    ], ids=["figure2", "gals-ring", "gals-chain"])
    def test_matches_scripted_step_on_any_clock(self, graph):
        """The phase in the state reproduces the scripted engine's
        clock-domain gating cycle by cycle."""
        scripted = SkeletonSim(graph, detect_ambiguity=False)
        external = SkeletonSim(graph, detect_ambiguity=False)
        state = external.initial_state
        for cycle in range(3 * scripted.hyperperiod + 12):
            fires_a, _accepts = scripted.step()
            state, fires_b, _src_stops, _amb = external.step_from(
                state, [True] * len(external.source_names),
                [False] * len(external.sink_names))
            assert fires_a == fires_b, cycle
            assert state == (_registers(scripted),
                             scripted.cycle % scripted.hyperperiod), cycle

    def test_leaves_the_simulator_untouched(self):
        sim = SkeletonSim(figure2())
        for _ in range(3):
            sim.step()
        before = (sim.state(), sim.cycle)
        sim.step_from(sim.initial_state, [], [False])
        assert (sim.state(), sim.cycle) == before

    def test_stop_report_matches_hold_contract(self):
        # A permanently stopped sink eventually pushes back to the src.
        sim = SkeletonSim(pipeline(2))
        state = sim.initial_state
        held_seen = False
        for _ in range(15):
            state, _f, src_stops, _amb = sim.step_from(
                state, [True], [True])
            held_seen = held_seen or src_stops[0]
        assert held_seen


class TestPurity:
    """``step_from`` depends on its arguments alone: running the
    simulator first changes neither the successor nor the fires."""

    @pytest.mark.parametrize("prior", range(4))
    @pytest.mark.parametrize("graph", [
        pipeline(3), figure2(), gals_ring(("1", "1/2")),
        gals_chain(("1", "1/2"), depth=2),
    ], ids=["pipeline3", "figure2", "gals-ring", "gals-chain"])
    def test_same_successor_after_prior_cycles(self, graph, prior):
        fresh = SkeletonSim(graph)
        used = SkeletonSim(graph)
        for _ in range(prior):
            used.step()
        frontier = [fresh.initial_state]
        for _depth in range(3):
            following = []
            for state in frontier:
                for offers, stops in _all_envs(fresh):
                    expected = fresh.step_from(state, offers, stops)
                    assert used.step_from(state, offers, stops) == \
                        expected
                    following.append(expected[0])
            frontier = following[:4]

    def test_phase_wraps_at_the_hyperperiod(self):
        sim = SkeletonSim(gals_chain(("1", "1/3")))
        state = sim.initial_state
        phases = []
        for _ in range(7):
            state = sim.step_from(state, [True], [False])[0]
            phases.append(state[1])
        assert phases == [1, 2, 0, 1, 2, 0, 1]

    def test_idle_ports_ignore_the_environment(self):
        # At a phase where the 1/8-rate domains do not tick, the
        # source presents void and the sink stops whatever is asked.
        sim = SkeletonSim(gals_chain(("1/8", "1/8")))
        results = {sim.step_from(sim.initial_state, offers, stops)
                   for offers, stops in _all_envs(sim)}
        assert len(results) == 1
