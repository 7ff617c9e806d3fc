"""Exhaustive system-level liveness (all environments, small systems)."""

import pytest

from repro.graph import (
    figure1,
    figure2,
    gals_chain,
    gals_ring,
    parse_topology,
    pipeline,
    random_loopy,
    reconvergent,
    ring,
    self_loop,
    tree,
)
from repro.lid.variant import ProtocolVariant
from repro.skeleton import SkeletonSim, check_deadlock
from repro.verify import verify_system_liveness

CASU = ProtocolVariant.CASU
CARLONI = ProtocolVariant.CARLONI


class TestPaperClaimsProved:
    """The paper's deadlock-freedom claims, now proved over ALL
    environment behaviours on concrete instances (the paper only
    simulated specific scripts)."""

    @pytest.mark.parametrize("graph", [
        pipeline(2), pipeline(3), figure1(), tree(2),
        reconvergent(long_relays=(2, 1), short_relays=1),
    ])
    def test_feedforward_live_for_all_environments(self, graph):
        result = verify_system_liveness(graph)
        assert result.live
        assert result.reachable_states > 1

    @pytest.mark.parametrize("graph", [
        figure2(), ring(3, relays_per_arc=1), self_loop(relays=2),
    ])
    def test_full_relay_loops_live_for_all_environments(self, graph):
        for variant in (CASU, CARLONI):
            result = verify_system_liveness(graph, variant=variant)
            assert result.live, (graph.name, variant)

    def test_half_in_loop_live_under_refinement(self):
        """The token-conservation argument, mechanically verified:
        under the refined protocol the hazardous loop cannot reach a
        stuck state no matter what the environment does."""
        graph = ring(2, relays_per_arc=[["half"], ["full"]])
        result = verify_system_liveness(graph, variant=CASU)
        assert result.live

    def test_half_in_loop_stuck_under_original(self):
        graph = ring(2, relays_per_arc=[["half"], ["full"]])
        result = verify_system_liveness(graph, variant=CARLONI)
        assert not result.live
        assert result.stuck_state is not None

    def test_all_half_loop_verdicts(self):
        graph = ring(2, relays_per_arc=[["half"], ["half"]])
        assert verify_system_liveness(graph, variant=CASU).live
        assert not verify_system_liveness(graph, variant=CARLONI).live


class TestAgainstScriptedChecker:
    """The exhaustive verdict must dominate the scripted one: a system
    proved live for all environments can never deadlock under any
    script the scripted checker tries."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_loops_consistent(self, seed):
        from repro.skeleton import check_deadlock

        graph = random_loopy(seed, shells=3, max_relays=1)
        exhaustive = verify_system_liveness(graph)
        scripted = check_deadlock(graph)
        if exhaustive.live:
            assert not scripted.deadlocked
        else:
            # A stuck state exists for SOME environment; the default
            # script may or may not reach it — no constraint.
            pass


class TestQueuedShellSystems:
    def test_queued_pipeline_live_for_all_envs(self):
        """Queued shells desugar to relay stations inside the skeleton,
        so the exhaustive proof covers them too."""
        from repro.graph import SystemGraph
        from repro.pearls import Identity

        g = SystemGraph("qpipe")
        g.add_source("src")
        g.add_queued_shell("S0", Identity)
        g.add_queued_shell("S1", Identity)
        g.add_sink("out")
        g.add_edge("src", "S0")
        g.add_edge("S0", "S1")
        g.add_edge("S1", "out")
        result = verify_system_liveness(g)
        assert result.live
        assert result.ambiguous_states == 0


class TestAmbiguityAccounting:
    def test_legal_systems_have_no_ambiguity(self):
        for graph in (figure1(), figure2(),
                      ring(2, relays_per_arc=[["half"], ["full"]])):
            result = verify_system_liveness(graph)
            assert result.ambiguous_states == 0
            assert result.potential_deadlock_free == result.live

    def test_all_half_loop_unambiguous_under_refinement(self):
        """Token conservation keeps the combinational stop cycle from
        ever self-sustaining — proved over every reachable state and
        every environment choice."""
        graph = ring(2, relays_per_arc=[["half"], ["half"]])
        result = verify_system_liveness(graph, variant=CASU)
        assert result.live
        assert result.ambiguous_states == 0


class TestMechanics:
    def test_counts_reported(self):
        result = verify_system_liveness(pipeline(2))
        assert result.transitions >= result.reachable_states

    def test_state_budget(self):
        with pytest.raises(MemoryError):
            verify_system_liveness(figure1(), max_states=3)

    def test_no_bound_parameter(self):
        # A stuck state is decided exactly by following the cooperative
        # orbit; there is no recovery budget to tune.
        with pytest.raises(TypeError):
            verify_system_liveness(pipeline(2), recovery_bound=50)

    def test_bool_protocol(self):
        assert verify_system_liveness(pipeline(2))

    def test_mutation_detected(self, monkeypatch):
        """Freeze the relay-station update and the explorer finds the
        resulting trap state."""
        from repro.lid.variant import ProtocolVariant as PV

        # A variant that never lets tokens through relay slots.
        monkeypatch.setattr(
            PV, "slot_consumed", lambda self, valid, stop: False)
        result = verify_system_liveness(pipeline(2))
        assert not result.live


def _replay(graph, variant, result):
    """Drive the witness through ``step_from`` from reset."""
    sim = SkeletonSim(graph, variant=variant)
    state = sim.initial_state
    for offered, stopped in result.witness:
        offers = [name in offered for name in sim.source_names]
        stops = [name in stopped for name in sim.sink_names]
        state = sim.step_from(state, offers, stops)[0]
    return state


def _cooperative_orbit(graph, variant, state, cycles):
    """Registers and fires along the cooperative run from *state*."""
    sim = SkeletonSim(graph, variant=variant)
    fired = False
    for _ in range(cycles):
        state, fires, _src_stops, _amb = sim.step_from(
            state, [True] * len(sim.source_names),
            [False] * len(sim.sink_names))
        fired = fired or any(fires)
    return state, fired


_GALS_RATES = ("1/8+1/8", "1/16+1", "1/9+1/7", "1/16+1/16")
_GALS_GRID = [
    f"{family}:rates={rates},depth={depth}"
    for family in ("gals-chain", "gals-ring")
    for rates in _GALS_RATES
    for depth in (1, 2, 3)
]


class TestGalsLiveness:
    """Slow clock domains: the phase is part of the explored state and
    the stuck test follows the cooperative orbit exactly, so a domain
    that ticks once every 16 base cycles is not mistaken for a trap."""

    @pytest.mark.parametrize("variant", [CASU, CARLONI])
    @pytest.mark.parametrize("spec", _GALS_GRID)
    def test_verdict_agrees_with_check_deadlock(self, spec, variant):
        graph = parse_topology(spec)
        result = verify_system_liveness(graph, variant=variant)
        scripted = check_deadlock(graph, variant=variant)
        if spec.startswith("gals-chain"):
            # Feed-forward: live for every environment, and the
            # default script agrees.
            assert result.live, result.render_witness()
            assert not scripted.deadlocked
        if result.live:
            assert not scripted.deadlocked
        else:
            assert result.stuck_state[0] == _replay(graph, variant, result)

    def test_only_carloni_depth_one_rings_get_stuck(self):
        stuck = set()
        for spec in _GALS_GRID:
            for variant in (CASU, CARLONI):
                if not verify_system_liveness(parse_topology(spec),
                                              variant=variant):
                    stuck.add((spec, variant))
        assert stuck == {
            (f"gals-ring:rates={rates},depth=1", CARLONI)
            for rates in _GALS_RATES}

    @pytest.mark.parametrize("start", range(4))
    def test_state_count_does_not_depend_on_the_simulator_cycle(
            self, start, monkeypatch):
        """The explorer reads no cycle counter: a simulator that has
        already run *start* cycles yields the same proof."""
        graph = gals_chain(("1", "1/2"), depth=2)
        expected = verify_system_liveness(graph, variant=CASU)
        original = SkeletonSim.__init__

        def started(self, *args, **kwargs):
            original(self, *args, **kwargs)
            for _ in range(start):
                self.step()

        monkeypatch.setattr(SkeletonSim, "__init__", started)
        result = verify_system_liveness(graph, variant=CASU)
        assert (result.live, result.reachable_states,
                result.transitions) == (
            expected.live, expected.reachable_states,
            expected.transitions)

    def test_idle_ports_have_no_choice(self):
        # Both 1/8-rate domains tick on one base cycle in eight, so
        # seven of eight phases leave the environment nothing to pick.
        result = verify_system_liveness(gals_chain(("1/8", "1/8")))
        assert result.live
        assert result.transitions < 2 * result.reachable_states


class TestWitness:
    def test_stuck_at_reset_has_an_empty_witness(self):
        graph = ring(2, relays_per_arc=[["half"], ["full"]])
        result = verify_system_liveness(graph, variant=CARLONI)
        assert result.reachable_states == 1
        assert result.witness == []
        assert "reset state is stuck" in result.render_witness()

    def test_witness_is_the_shortest_environment_trace(self):
        # One withheld token wedges a relay-less Carloni pipeline; the
        # breadth-first explorer finds that one-cycle trace.
        graph = pipeline(2, relays_per_hop=0)
        result = verify_system_liveness(graph, variant=CARLONI)
        assert not result.live
        assert result.witness == [((), ())]
        assert result.stuck_state[0] == _replay(graph, CARLONI, result)
        assert "cycle 0: offered -; stopped -" in result.render_witness()

    def test_live_result_has_no_witness(self):
        result = verify_system_liveness(pipeline(2))
        assert result.witness is None
        assert result.render_witness() == ""


class TestCarloniFindings:
    """Two GALS systems only Carloni's protocol wedges.  Both are the
    paper's stop-on-void hazard (docs/gals.md), not engine bugs: a
    Carloni shell honours a stop that lands on a void output register,
    and the token-level reference wedges on the single-clock analogue
    of each."""

    @pytest.mark.parametrize("rates", [
        ("1", "1"), ("1/2", "1"), ("1", "1/2"), ("1/3", "1/2")])
    def test_relay_less_two_stage_chain(self, rates):
        graph = gals_chain(rates, stages_per_domain=2)
        assert verify_system_liveness(graph, variant=CASU).live
        result = verify_system_liveness(graph, variant=CARLONI)
        assert not result.live
        assert result.stuck_state[0] == _replay(graph, CARLONI, result)
        # One relay station per hop (lint rule 1) cures it.
        cured = gals_chain(rates, stages_per_domain=2, relays_per_hop=1)
        assert verify_system_liveness(cured, variant=CARLONI).live

    def test_relay_less_chain_wedges_the_token_level_engine(self):
        from repro.graph import SystemGraph
        from repro.pearls import Identity

        fires = {}
        for variant in (CASU, CARLONI):
            g = SystemGraph("direct")
            g.add_source("src", stream_factory=[None] + list(range(1, 60)))
            g.add_shell("S0", Identity)
            g.add_shell("S1", Identity)
            g.add_sink("out")
            g.add_edge("src", "S0")
            g.add_edge("S0", "S1")
            g.add_edge("S1", "out")
            system = g.elaborate(variant=variant, strict=False)
            system.finalize(strict=False)
            system.run(40)
            fires[variant] = system.stats()["shell_firings"]["S0"]
        assert fires[CASU] > 30 and fires[CARLONI] == 0

    def test_depth_one_mixed_rate_ring(self):
        graph = gals_ring(("1", "1/2"), depth=1)
        assert verify_system_liveness(graph, variant=CASU).live
        result = verify_system_liveness(graph, variant=CARLONI)
        assert not result.live
        assert check_deadlock(graph, variant=CARLONI).deadlocked
        # The cooperative run parks both tokens in the two one-slot
        # bridges, and both shells stall on the full flag that stops
        # their void output registers.
        (registers, _phase), fired = _cooperative_orbit(
            graph, CARLONI, result.stuck_state[0], 8)
        shell_regs, _main, _aux, _stop, occupancy = registers
        assert not fired
        assert not any(shell_regs) and occupancy == (1, 1)
        deeper = gals_ring(("1", "1/2"), depth=2)
        assert verify_system_liveness(deeper, variant=CARLONI).live

    def test_single_clock_analogue_of_the_depth_one_ring(self):
        # One registered-stop slot per arc is the single-clock twin of
        # a depth-1 bridge; the token-level engine wedges there too.
        graph = ring(2, relays_per_arc=[["half-registered"],
                                        ["half-registered"]])
        assert verify_system_liveness(graph, variant=CASU).live
        assert not verify_system_liveness(graph, variant=CARLONI).live
        for variant, expect_fires in ((CASU, True), (CARLONI, False)):
            system = graph.elaborate(variant=variant)
            system.finalize()
            system.run(40)
            fired = any(system.stats()["shell_firings"].values())
            assert fired is expect_fires, variant
