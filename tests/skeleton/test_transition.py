"""The compiled liveness transition against its spec, ``step_from``.

:func:`repro.skeleton.codegen.transition_for` compiles the plane
emitter's equations into one cycle over 0/1 ints with a flat register
tuple; :meth:`SkeletonSim.step_from` is the executable spec it must
equal.  Every state reachable from reset under any environment, crossed
with every environment choice (idle GALS ports included, which both
must ignore), gives the same next state, fires, source stops and
ambiguity verdict.  A reachable set larger than :data:`MAX_STATES` is
checked on its first ``MAX_STATES`` states in breadth-first order; of
the graphs here only the seed-7 random DAG under Casu is that large
(145,494 states).
"""

import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import StateSpaceExceeded
from repro.graph import parse_topology
from repro.skeleton import SkeletonSim
from repro.skeleton.codegen import transition_for
from repro.verify.reach import reachable_states

from .test_backend_conformance import VARIANTS, _graph_matrix
from .test_gals import GALS_SPECS

#: States whose every environment choice is compared, per graph.
MAX_STATES = 4000

#: A source domain that idles, feeding relay stations that idle with it
#: (their commits are gated, so a source stop read after them is wrong).
SLOW_SOURCE = ["gals-chain:rates=1/2+1,relays=1"]

#: Rings without relay stations: their stop networks are ambiguous.
ZERO_RELAY_RINGS = ["ring:shells=2,relays=0", "figure2:relays=0"]

GRAPHS = ([(f"matrix{i}-{g.name}", g) for i, g in enumerate(_graph_matrix())]
          + [(spec, parse_topology(spec))
             for spec in GALS_SPECS + SLOW_SOURCE + ZERO_RELAY_RINGS])


def _flat(low, registers):
    """``step_from`` registers as the transition's flat 0/1 tuple."""
    shell_reg, main, aux, stop_reg, occupancy = registers
    bits = [int(x) for x in shell_reg + main + aux + stop_reg]
    for bridge, occ in zip(low.bridges, occupancy):
        bits += [int(level < occ) for level in range(bridge.depth)]
    return tuple(bits)


def _ints(bits):
    return tuple(int(b) for b in bits)


def _compare(graph, variant):
    """Walk every reachable ``step_from`` state; returns (states,
    ambiguous transitions)."""
    sim = SkeletonSim(graph, variant=variant)
    low = sim.lowered
    transition = transition_for(low, variant)
    envs = list(itertools.product(
        itertools.product((False, True), repeat=len(sim.source_names)),
        itertools.product((False, True), repeat=len(sim.sink_names))))
    ambiguous = 0

    def successors(state):
        nonlocal ambiguous
        registers, phase = state
        flat = _flat(low, registers)
        for offers, stops in envs:
            (nxt, nxt_phase), fires, src_stops, amb = sim.step_from(
                state, offers, stops)
            got = transition(flat, phase, offers, stops)
            expected = (_flat(low, nxt), _ints(fires), _ints(src_stops),
                        int(amb))
            assert (_ints(got[0]), _ints(got[1]), _ints(got[2]),
                    int(got[3])) == expected, (
                graph.name, str(variant), state, offers, stops)
            assert nxt_phase == (phase + 1) % low.hyperperiod
            ambiguous += amb
            yield (offers, stops), (nxt, nxt_phase)

    try:
        states = len(reachable_states([sim.initial_state], successors,
                                      max_states=MAX_STATES))
    except StateSpaceExceeded:
        states = MAX_STATES
    return states, ambiguous


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("name,graph", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_transition_equals_step_from(name, graph, variant):
    states, _ambiguous = _compare(graph, variant)
    assert states > 1 or name in ZERO_RELAY_RINGS


@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("spec", ZERO_RELAY_RINGS)
def test_ambiguous_rings_exercise_the_probe(spec, variant):
    _states, ambiguous = _compare(parse_topology(spec), variant)
    assert ambiguous > 0


def test_registers_are_one_flat_tuple():
    """Shell out-registers, relay mains, auxes, stop registers, then
    each bridge's thermometer bits."""
    graph = parse_topology("gals-ring:rates=1+1/2,shells=2,depth=3")
    sim = SkeletonSim(graph)
    low = sim.lowered
    transition = transition_for(low, sim.variant)
    registers, phase = sim.initial_state
    nxt, fires, src_stops, ambiguous = transition(
        _flat(low, registers), phase, (), (False,) * len(sim.sink_names))
    assert len(nxt) == (len(low.shell_regs) + 3 * len(low.relays)
                        + sum(b.depth for b in low.bridges))
    assert len(fires) == len(low.shell_names)
    assert src_stops == () and ambiguous == 0


def test_liveness_loads_neither_the_plane_emitter_nor_the_block_checkers():
    """``repro-lid liveness`` compiles its transition from the shared
    equation writers: ``planes.py`` and the block-level checkers of
    ``repro.verify`` stay unimported (each costs resident memory)."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    code = ("import contextlib, io, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['liveness', 'figure2']) == 0\n"
            "print(sorted(m for m in ('repro.skeleton.codegen.planes',\n"
            "    'repro.verify.properties', 'repro.verify.refinement')\n"
            "    if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
