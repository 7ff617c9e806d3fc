"""Spec-level verification and conformance for the queued shell."""

import random

import pytest

from repro.kernel.scheduler import Simulator
from repro.lid.channel import Channel
from repro.lid.queued_shell import QueuedShell
from repro.lid.token import Token
from repro.lid.variant import ProtocolVariant
from repro.pearls import Identity
from repro.verify import fsm, verify_queued_shell
from repro.verify.env import PAYLOAD_MODULUS

from .test_conformance import ScriptedDownstream, ScriptedUpstream, random_scripts


class TestSpecFsm:
    def test_initial_fire_blocked_on_empty_queue(self):
        state = fsm.QueuedShellState(queue=(), out=(None,))
        assert not fsm.queued_shell_fire(state, (False,))

    def test_fire_pops_and_replicates(self):
        state = fsm.QueuedShellState(queue=(3, 4), out=(None, None))
        nxt = fsm.queued_shell_step(state, None, (False, False))
        assert nxt.queue == (4,)
        assert nxt.out == (3, 3)

    def test_stop_reg_tracks_fullness(self):
        # A valid, stopped output blocks firing (a stop on a void
        # output would be discarded under the refined protocol).
        state = fsm.QueuedShellState(queue=(1,), out=(7,), depth=2)
        nxt = fsm.queued_shell_step(state, 2, (True,))
        assert nxt.queue == (1, 2)
        assert nxt.stop_reg  # full now

    def test_registered_stop_blocks_acceptance(self):
        state = fsm.QueuedShellState(queue=(1, 2), out=(7,),
                                     stop_reg=True, depth=2)
        nxt = fsm.queued_shell_step(state, 9, (True,))
        assert nxt.queue == (1, 2)  # 9 held by the upstream

    def test_held_output_survives(self):
        state = fsm.QueuedShellState(queue=(), out=(7,))
        nxt = fsm.queued_shell_step(state, None, (True,))
        assert nxt.out == (7,)
        nxt = fsm.queued_shell_step(nxt, None, (False,))
        assert nxt.out == (None,)


class TestProperties:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_all_properties_hold(self, depth):
        for row in verify_queued_shell(depth=depth):
            assert row.holds, row.counterexample and \
                row.counterexample.render()

    def test_fanout_variant(self):
        for row in verify_queued_shell(n_outputs=2):
            assert row.holds

    def test_carloni_variant(self):
        for row in verify_queued_shell(
                variant=ProtocolVariant.CARLONI):
            assert row.holds


class TestConformance:
    """The spec FSM and the simulation QueuedShell agree in lockstep."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("depth", [1, 2])
    def test_lockstep(self, seed, depth):
        offers, stops = random_scripts(seed + 500, length=300)
        sim = Simulator()
        chan_in = Channel.create(sim, "in")
        chan_out = Channel.create(sim, "out")
        shell = QueuedShell("q", Identity(initial=PAYLOAD_MODULUS - 1),
                            queue_depth=depth)
        shell.connect_input("a", chan_in)
        shell.connect_output("out", chan_out)
        up = ScriptedUpstream("up", chan_in, offers)
        down = ScriptedDownstream("down", chan_out, stops)
        sim.add_component(up)
        sim.add_component(shell)
        sim.add_component(down)
        sim.reset()

        spec = fsm.QueuedShellState(
            queue=(), out=(PAYLOAD_MODULUS - 1,), depth=depth)
        for cycle in range(len(offers)):
            sim.settle()
            # Moore outputs must agree before the edge.
            assert chan_out.valid.value == (spec.out[0] is not None), \
                cycle
            if spec.out[0] is not None:
                assert chan_out.data.value % PAYLOAD_MODULUS == \
                    spec.out[0] % PAYLOAD_MODULUS, cycle
            assert chan_in.stop.value == spec.stop_reg, cycle
            in_tok = chan_in.read()
            stop_in = chan_out.stop_asserted()
            spec = fsm.queued_shell_step(
                spec,
                in_tok.value if in_tok.valid else None,
                (stop_in,),
                modulus=1 << 30,
            )
            for comp in sim.components:
                comp.tick()
            sim.cycle += 1
