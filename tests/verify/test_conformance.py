"""Refinement check: the verified spec FSMs match the simulation RTL.

The model checker explores :mod:`repro.verify.fsm`; the simulator runs
:mod:`repro.lid`.  These tests replay long pseudo-random environment
traces through *both* and require lockstep agreement on every output
wire — so the properties proven on the specs transfer to the code that
actually simulates (and, via ``tests/rtl``, to the gate level too).
"""

import pytest

from repro.kernel.scheduler import Simulator
from repro.lid.channel import Channel
from repro.lid.relay import HalfRelayStation, RelayStation
from repro.lid.variant import ProtocolVariant
from repro.verify import fsm

# The lockstep drivers live in the library so users extending a block
# get the same machinery; these tests exercise them directly.
from repro.verify.refinement import (
    ScriptedDownstream,
    ScriptedUpstream,
    random_scripts,
)


def make_harness(station_factory, offers, stops):
    sim = Simulator()
    chan_in = Channel.create(sim, "in")
    chan_out = Channel.create(sim, "out")
    station = station_factory()
    station.connect(chan_in, chan_out)
    up = ScriptedUpstream("up", chan_in, offers)
    down = ScriptedDownstream("down", chan_out, stops)
    sim.add_component(up)
    sim.add_component(station)
    sim.add_component(down)
    return sim, chan_in, chan_out, station


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("variant", list(ProtocolVariant))
class TestFullRsConformance:
    def test_lockstep_with_spec(self, seed, variant):
        offers, stops = random_scripts(seed)
        sim, chan_in, chan_out, station = make_harness(
            lambda: RelayStation("rs", variant=variant), offers, stops)
        sim.reset()
        spec = fsm.FullRsState()
        for cycle in range(len(offers)):
            sim.settle()
            out_tok, stop_out = fsm.full_rs_outputs(spec)
            assert chan_out.valid.value == (out_tok is not None), cycle
            if out_tok is not None:
                assert chan_out.data.value == out_tok, cycle
            assert chan_in.stop.value == stop_out, cycle
            in_tok = chan_in.read()
            stop_in = chan_out.stop_asserted()
            spec = fsm.full_rs_step(
                spec, in_tok.value if in_tok.valid else None,
                stop_in, variant)
            for comp in sim.components:
                comp.tick()
            sim.cycle += 1


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("registered", [False, True])
class TestHalfRsConformance:
    def test_lockstep_with_spec(self, seed, variant, registered):
        offers, stops = random_scripts(seed + 100)
        sim, chan_in, chan_out, station = make_harness(
            lambda: HalfRelayStation("rs", variant=variant,
                                     registered_stop=registered),
            offers, stops)
        sim.reset()
        spec = fsm.HalfRsState()
        for cycle in range(len(offers)):
            sim.settle()
            stop_in = chan_out.stop_asserted()
            expected_stop = fsm.half_rs_stop_out(
                spec, stop_in, variant, registered)
            assert chan_out.valid.value == (spec.main is not None), cycle
            if spec.main is not None:
                assert chan_out.data.value == spec.main, cycle
            assert chan_in.stop.value == expected_stop, cycle
            in_tok = chan_in.read()
            spec = fsm.half_rs_step(
                spec, in_tok.value if in_tok.valid else None,
                stop_in, variant, registered)
            for comp in sim.components:
                comp.tick()
            sim.cycle += 1
