"""Checkpoints: capture a system mid-run, resume it in a fresh one.

A run resumed from a checkpoint must be indistinguishable from the
uninterrupted run: same sink streams, shell firings, relay activity
and queue contents, for every block type.
"""

import pickle

import pytest

from repro import LidSystem, pearls
from repro.graph.specs import parse_topology
from repro.lid.variant import ProtocolVariant

CYCLES = 60


def _mixed(variant=ProtocolVariant.CASU):
    """Every block type: full, half and registered-stop half stations,
    queued shells, a stateful pearl, a scripted source, a stopping sink."""
    system = LidSystem("mixed", variant=variant)
    src = system.add_source("src", stream=[1, None, 2, 3, None, 4] * 20)
    acc = system.add_shell("acc", pearls.Accumulator())
    q0 = system.add_queued_shell("q0", pearls.Identity(), queue_depth=2)
    q1 = system.add_queued_shell("q1", pearls.Identity(), queue_depth=1)
    sink = system.add_sink("out", stop_script=lambda c: c % 7 in (2, 3))
    system.connect(src, acc, relays=["half"])
    system.connect(acc, q0, relays=["full", "half-registered"])
    system.connect(q0, q1)
    system.connect(q1, sink, relays=1)
    system.finalize()
    return system


def _snapshot(system):
    return (system.stats(),
            {n: s.received for n, s in system.sinks.items()},
            {n: s.void_cycles for n, s in system.sinks.items()},
            {n: s.fired_cycles for n, s in system.shells.items()},
            {n: r.valid_out_cycles for n, r in system.relays.items()},
            {n: s.emitted for n, s in system.sources.items()},
            {n: s.queue_occupancy() for n, s in system.shells.items()
             if hasattr(s, "queue_occupancy")})


@pytest.mark.parametrize("build", (
    _mixed,
    lambda: _mixed(ProtocolVariant.CARLONI),
    lambda: parse_topology("figure2:relays=2").elaborate(),
    lambda: parse_topology("dag:shells=4", seed=3).elaborate(),
), ids=("mixed-casu", "mixed-carloni", "figure2", "dag"))
@pytest.mark.parametrize("at", (0, 1, 17, CYCLES))
def test_resumed_run_equals_uninterrupted(build, at):
    straight = build()
    straight.run(CYCLES)

    first = build()
    first.run(at)
    state = pickle.loads(pickle.dumps(first.sim.capture_state()))
    for resumed in (build(), build()):  # one state, restored twice
        resumed.sim.restore_state(state)
        resumed.run(CYCLES - at, reset=False)
        assert resumed.sim.cycle == CYCLES
        assert _snapshot(resumed) == _snapshot(straight)


def test_checkpoint_survives_the_run_going_on():
    # Histories are captured by reference and length: the captured
    # system running on (and resetting) must not leak into a restore.
    system = _mixed()
    system.run(20)
    state = system.sim.capture_state()
    system.run(CYCLES - 20, reset=False)
    system.run(5)
    resumed = _mixed()
    resumed.sim.restore_state(state)
    resumed.run(CYCLES - 20, reset=False)
    straight = _mixed()
    straight.run(CYCLES)
    assert _snapshot(resumed) == _snapshot(straight)


def test_restore_rejects_a_different_system():
    state = _mixed().sim.capture_state()
    other = parse_topology("figure1").elaborate()
    with pytest.raises(ValueError, match="component states"):
        other.sim.restore_state(state)
