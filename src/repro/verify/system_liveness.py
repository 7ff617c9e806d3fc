"""Exhaustive system-level liveness: the claim the paper could not check.

Paper: *"Since liveness is topology dependent, we couldn't verify
formally the protocol as such"* — they fell back to skeleton simulation
of specific input scripts.  For concrete (small) topologies we can do
better: explore the skeleton's register state space under **every**
environment behaviour — each cycle every source nondeterministically
offers or withholds a token (honouring the hold-on-stop contract) and
every sink nondeterministically stops or accepts — and check that no
reachable state is a trap.

Liveness notion (weak fairness, the standard one for back-pressured
systems): a state is **stuck** if, even with a fully cooperative
environment from then on (all sources offering, no sink stopping),
no shell ever fires again.  A hostile environment can always *pause* a
finite-buffer system, so demanding progress under hostility would be
vacuous; demanding recovery once the hostility ends is exactly
deadlock-freedom.  The cooperative environment is deterministic, so the
test is exact: follow the orbit until a shell fires or a state repeats
(:func:`~repro.verify.reach.progresses`).

The explored state is the skeleton's registers, the clock phase
``cycle % hyperperiod`` (always 0 for single-clock systems) and one
hold-contract flag per source.  A port whose clock domain does not tick
at the phase has no environment choice: its source presents void and
keeps its commitment, its sink stops — the GALS model both skeleton
engines run.

Each transition is one call of the topology's compiled transition
(:func:`~repro.skeleton.codegen.transition_for`), written by the plane
emitter's equation writers over 0/1 ints and compiled once per
topology and variant (the plan cache serves a repeated proof);
:meth:`~repro.skeleton.sim.SkeletonSim.step_from` is its executable
spec, and a differential test holds the two equal on every reachable
state and environment choice.  A stuck state is reported in
``step_from``'s ``((registers, phase), committed)`` form.

``verify_system_liveness(graph)`` is one
:func:`~repro.verify.reach.explore` call.  It returns a verdict with the
reachable state count and, on failure, the first stuck state found and
the shortest environment trace from reset that reaches it — upgrading
the paper's per-script simulation into a proof over all environments
for that topology, with an SMV-style witness when it fails.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import List, Optional, Tuple

from ..graph.model import SystemGraph
from ..ir import LoweredSystem, lower
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from ..skeleton.codegen import transition_for
from .monitors import Violation
from .reach import explore, progresses

#: A reported stuck state: (step_from state, per-source committed flags).
_State = Tuple[Tuple, Tuple[bool, ...]]
#: One witness cycle: (sources that offered, sinks that stopped).
_EnvCycle = Tuple[Tuple[str, ...], Tuple[str, ...]]


@dataclasses.dataclass
class SystemLivenessResult:
    """Outcome of an exhaustive liveness exploration.

    ``ambiguous_states`` counts reachable states in which some
    environment choice makes the combinational stop network admit more
    than one fixpoint — the paper's *potential* deadlock, here checked
    over every reachable state instead of along one simulated script.
    ``witness`` lists, for a STUCK verdict, the environment of each
    cycle from reset to ``stuck_state``: which sources offered and
    which sinks stopped (empty when the reset state is stuck).
    """

    live: bool
    reachable_states: int
    transitions: int
    stuck_state: Optional[_State] = None
    ambiguous_states: int = 0
    witness: Optional[List[_EnvCycle]] = None

    @property
    def potential_deadlock_free(self) -> bool:
        return self.live and self.ambiguous_states == 0

    def __bool__(self) -> bool:
        return self.live

    def render_witness(self) -> str:
        """The witness, one line per cycle from reset."""
        if self.witness is None:
            return ""
        if not self.witness:
            return "witness: the reset state is stuck"
        lines = ["witness: environment per cycle from reset"]
        for cycle, (offered, stopped) in enumerate(self.witness):
            lines.append(f"  cycle {cycle}: offered "
                         f"{' '.join(offered) or '-'}; stopped "
                         f"{' '.join(stopped) or '-'}")
        return "\n".join(lines)


def _step_from_state(low: LoweredSystem, state: Tuple) -> _State:
    """An explorer state in ``step_from``'s form: registers as bools
    grouped per table, each bridge as its occupancy."""
    registers, phase, committed = state
    bits = [bool(x) for x in registers]
    n_regs, n_rs = len(low.shell_regs), len(low.relays)
    tables = [tuple(bits[:n_regs])]
    for k in range(3):
        start = n_regs + k * n_rs
        tables.append(tuple(bits[start:start + n_rs]))
    occupancy, start = [], n_regs + 3 * n_rs
    for b in low.bridges:
        occupancy.append(sum(registers[start:start + b.depth]))
        start += b.depth
    tables.append(tuple(occupancy))
    return (tuple(tables), phase), tuple(bool(c) for c in committed)


def verify_system_liveness(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_states: int = 100_000,
) -> SystemLivenessResult:
    """Prove (or refute) deadlock-freedom over all environments."""
    low = lower(graph).skeleton_view()
    transition = transition_for(low, variant)
    has_shells = bool(low.shell_names)
    hyperperiod = low.hyperperiod

    def ticks(node_ids, phase):
        return tuple(low.domains[low.node_domain[i]].schedule[phase]
                     for i in node_ids)

    # Per phase: which sources tick, every stop choice of the sinks
    # (an idle sink stops), and the cooperative environment.
    src_ticks, stop_choices, cooperative_env = [], [], []
    for phase in range(hyperperiod):
        src_ticks.append(ticks(low.source_ids, phase))
        sink_ticks = ticks(low.sink_ids, phase)
        stop_choices.append(list(itertools.product(
            *[(False, True) if tick else (True,) for tick in sink_ticks])))
        cooperative_env.append(
            (src_ticks[phase], tuple(not tick for tick in sink_ticks)))

    def cooperative(machine):
        registers, phase = machine
        nxt, fires, _src_stops, _ambiguous = transition(
            registers, phase, *cooperative_env[phase])
        return (nxt, (phase + 1) % hyperperiod), any(fires)

    transitions = ambiguous_states = 0

    def successors(state):
        nonlocal transitions, ambiguous_states
        registers, phase, committed = state
        next_phase = (phase + 1) % hyperperiod
        # The cooperative step is one of this state's transitions; only
        # when it does not fire is the orbit beyond it followed.
        coop_env = cooperative_env[phase]
        coop_step = transition(registers, phase, *coop_env)
        if has_shells and not any(coop_step[1]) and not progresses(
                (coop_step[0], next_phase), cooperative):
            raise Violation("no shell fires again under the cooperative "
                            "environment")
        # A ticking source may withhold unless the contract binds it to
        # re-present a held token; an idle source presents void.
        offer_choices = itertools.product(*[
            ((True,) if held else (False, True)) if tick else (False,)
            for tick, held in zip(src_ticks[phase], committed)])
        ambiguous = False
        for offers in offer_choices:
            for stops in stop_choices[phase]:
                env = (offers, stops)
                nxt, _fires, src_stops, amb = (
                    coop_step if env == coop_env
                    else transition(registers, phase, offers, stops))
                ambiguous = ambiguous or amb
                next_committed = tuple(
                    (o and s) if tick else held
                    for o, s, tick, held in zip(
                        offers, src_stops, src_ticks[phase], committed))
                transitions += 1
                yield env, (nxt, next_phase, next_committed)
        ambiguous_states += bool(ambiguous)

    n_rs = len(low.relays)
    initial = ((1,) * len(low.shell_regs)
               + (0,) * (3 * n_rs + sum(b.depth for b in low.bridges)),
               0, (False,) * len(low.source_names))
    result = explore([initial], successors, max_states=max_states)
    if result.holds:
        return SystemLivenessResult(
            live=True,
            reachable_states=result.states_explored,
            transitions=transitions,
            ambiguous_states=ambiguous_states,
        )
    steps = result.counterexample.steps
    witness = [
        (tuple(n for n, o in zip(low.source_names, offers) if o),
         tuple(n for n, s in zip(low.sink_names, stops) if s))
        for (offers, stops), _state in steps[1:-1]
    ]
    return SystemLivenessResult(
        live=False,
        reachable_states=result.states_explored,
        transitions=transitions,
        stuck_state=_step_from_state(low, steps[-1][1]),
        ambiguous_states=ambiguous_states,
        witness=witness,
    )
