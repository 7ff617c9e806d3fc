"""GALS multi-clock skeleton semantics, backend gating and bridges.

The differential-conformance extension for mixed-rate systems: the
scalar engine and the batch engine (bit planes, i.e. vectorized across
instances) must agree bit-exactly on every GALS topology (firing
decisions, bridge occupancy, registers, steady-state structure), both
engines run every lowering the capability flags describe, and
``select()`` turns an unknown backend name into an actionable message.
The full per-plane lockstep with CDC pokes lives in
``test_backend_conformance.py``.
"""

from fractions import Fraction

import pytest

from repro.graph import gals_chain, gals_ring, parse_topology
from repro.ir import lower
from repro.lid.variant import ProtocolVariant
from repro.skeleton import (
    BitplaneSkeletonSim,
    SkeletonSim,
    check_deadlock,
    select,
)

VARIANTS = [ProtocolVariant.CASU, ProtocolVariant.CARLONI]

GALS_SPECS = [
    "gals-chain:rates=1+1/2",
    "gals-chain:rates=1+1/2+1/3,stages=2",
    "gals-chain:rates=1+2/3,relays=1",
    "gals-ring:rates=1+1/2,shells=1",
    "gals-ring:rates=1+1/2,shells=2,depth=3",
    "gals-ring:rates=1+2/3,shells=2,relays=1",
    "gals-ring:rates=3/4+2/3+1/2,shells=1",
]


class TestMixedRateDifferential:
    @pytest.mark.parametrize("spec", GALS_SPECS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_scalar_vs_vectorized_bit_exact(self, spec, variant):
        """Scalar vs the bit-plane batch engine, one plane."""
        graph = parse_topology(spec)
        scalar = SkeletonSim(graph, variant=variant,
                             detect_ambiguity=False)
        batch = BitplaneSkeletonSim(graph, [{}], variant=variant,
                                    detect_ambiguity=False)
        cycles = 160
        fires = [0] * len(scalar.shell_names)
        accepted = 0
        for _ in range(cycles):
            f, acc = scalar.step()
            for i, fired in enumerate(f):
                fires[i] += fired
            accepted += sum(acc)
        batch.run(cycles)
        for i, name in enumerate(scalar.shell_names):
            j = batch.shell_names.index(name)
            assert batch.fire_count(j, 0) == fires[i], name
        assert sum(batch.accept_count(j, 0)
                   for j in range(len(batch.sink_names))) == accepted
        assert tuple(sum(word & 1 for word in ge)
                     for ge in batch.bridge_ge) \
            == tuple(scalar.bridge_occ)

    @pytest.mark.parametrize("spec", GALS_SPECS[:4])
    def test_steady_state_structure_matches(self, spec):
        graph = parse_topology(spec)
        ref = SkeletonSim(graph, detect_ambiguity=False).run()
        result = BitplaneSkeletonSim(
            graph, [{}], detect_ambiguity=False).run_to_period()[0]
        assert (result.transient, result.period) == (ref.transient,
                                                     ref.period)
        assert result.shell_fires == ref.shell_fires

    def test_deterministic_rerun(self):
        graph = parse_topology("gals-ring:rates=1+1/2,shells=2")
        first = SkeletonSim(graph, detect_ambiguity=False).run()
        second = SkeletonSim(graph, detect_ambiguity=False).run()
        assert first.shell_fires == second.shell_fires
        assert (first.transient, first.period) == (second.transient,
                                                   second.period)


class TestSchedules:
    def test_chain_throttles_to_slowest_domain(self):
        graph = gals_chain(rates=(Fraction(1), Fraction(1, 2)))
        result = SkeletonSim(graph, detect_ambiguity=False).run()
        for fires in result.shell_fires.values():
            assert Fraction(fires, result.period) == Fraction(1, 2)

    def test_rate_one_domains_match_default_clock(self):
        """All-rate-1 GALS degenerates to the single-clock dynamics."""
        graph = gals_chain(rates=(Fraction(1), Fraction(1)))
        low = lower(graph)
        assert not low.single_clock  # bridges still present
        result = SkeletonSim(graph, detect_ambiguity=False).run()
        for fires in result.shell_fires.values():
            assert Fraction(fires, result.period) == 1


class TestBridges:
    def test_occupancy_bounded_by_depth(self):
        graph = gals_ring(rates=(Fraction(1), Fraction(1, 2)),
                          shells_per_domain=2, depth=2)
        sim = SkeletonSim(graph, detect_ambiguity=False)
        for _ in range(300):
            sim.step()
            for occ, depth in zip(sim.bridge_occ, sim.bridge_depths):
                assert 0 <= occ <= depth

    def test_poke_clamps_and_matches_vectorized(self):
        """Pokes on the bit-plane batch engine clamp like scalar."""
        graph = parse_topology("gals-ring:rates=1+1/2,shells=2,depth=2")
        scalar = SkeletonSim(graph, detect_ambiguity=False)
        batch = BitplaneSkeletonSim(graph, [{}], detect_ambiguity=False)
        name = scalar.bridge_names[0]
        for sim_poke in (lambda c, d: scalar.poke_bridge(name, c, d),
                         lambda c, d: batch.poke_bridge(0, name, c, d)):
            sim_poke(10, -1)
            sim_poke(11, +1)
            sim_poke(12, +5)   # clamped at depth
            sim_poke(13, -5)   # clamped at zero
        for cycle in range(60):
            scalar.step()
            batch.step()
            got = tuple(sum(word & 1 for word in ge)
                        for ge in batch.bridge_ge)
            assert got == tuple(scalar.bridge_occ), cycle

    def test_poke_unknown_bridge_raises(self):
        graph = parse_topology("gals-chain:rates=1+1/2")
        sim = SkeletonSim(graph, detect_ambiguity=False)
        with pytest.raises(KeyError):
            sim.poke_bridge("no-such-bridge", 0, 1)

    @pytest.mark.parametrize("args,error", [
        ((0, "no-such-bridge"), KeyError),
        ((0, 5), KeyError),
        ((0, -1), KeyError),
        ((2, 0), IndexError),
        ((-1, 0), IndexError),
    ])
    def test_bitsim_poke_validation(self, args, error):
        """Same name, index and instance checks as the other engines."""
        graph = parse_topology("gals-chain:rates=1+1/2")
        sim = BitplaneSkeletonSim(graph, batch=2)
        with pytest.raises(error):
            sim.poke_bridge(*args, 0, 1)
        handle = select(graph, batch=2)
        with pytest.raises(error):
            handle.poke_bridge(*args, 0, 1)


class TestCapabilityGating:
    def test_lowering_flags(self):
        low = lower(parse_topology("gals-chain:rates=1+1/2"))
        assert not low.single_clock
        assert low.has_bridges
        single = lower(parse_topology("pipeline:stages=2"))
        assert single.single_clock
        assert not single.has_bridges

    @pytest.mark.parametrize("backend", ["codegen"])
    def test_select_refusal_is_actionable(self, backend):
        """A removed engine name is refused with the names that work."""
        graph = parse_topology("gals-chain:rates=1+1/2")
        with pytest.raises(ValueError) as err:
            select(graph, backend=backend)
        message = str(err.value)
        assert f"unknown backend {backend!r}" in message
        assert "available backends: scalar, bitsim" in message

    def test_select_unknown_backend_enumerates(self):
        graph = parse_topology("gals-chain:rates=1+1/2")
        with pytest.raises(ValueError) as err:
            select(graph, backend="warp")
        assert "scalar, bitsim" in str(err.value)

    def test_select_auto_falls_back_cleanly(self):
        graph = parse_topology("gals-chain:rates=1+1/2")
        # Single instance: the scalar reference wins; wide batches run
        # on bit planes.
        assert select(graph).name == "scalar"
        assert select(graph, batch=4).name == "bitsim"
        assert select(parse_topology("gals-ring:rates=1+1/2,shells=2"),
                      batch=4).name == "bitsim"

    def test_one_plane_plan_runs_gals(self):
        """The compiled plan at width 1 gates every element on its
        domain's clock, exactly as the scalar reference does."""
        graph = parse_topology("gals-ring:rates=1+1/2,shells=2")
        got = select(graph, batch=1, backend="bitsim").run()
        ref = select(graph, batch=1, backend="scalar").run()
        assert got == ref


class TestGalsDeadlock:
    def test_ring_is_live(self):
        graph = parse_topology("gals-ring:rates=1+1/2,shells=2")
        verdict = check_deadlock(graph, max_cycles=5_000)
        assert verdict.live

    def test_verdict_deterministic(self):
        graph = parse_topology("gals-ring:rates=1+2/3,shells=2")
        a = check_deadlock(graph, max_cycles=5_000)
        b = check_deadlock(graph, max_cycles=5_000)
        assert (a.deadlocked, a.potential, a.transient, a.period) \
            == (b.deadlocked, b.potential, b.transient, b.period)
