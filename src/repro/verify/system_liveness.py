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

The explored state is ``((registers, phase), committed)``: the
skeleton's :meth:`~repro.skeleton.sim.SkeletonSim.step_from` state,
whose phase is ``cycle % hyperperiod`` (always 0 for single-clock
systems), and one hold-contract flag per source.  A port whose clock
domain does not tick at the phase has no environment choice: its
source presents void and keeps its commitment, its sink stops — the
GALS model both skeleton engines run.

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
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from ..skeleton.sim import SkeletonSim
from .monitors import Violation
from .reach import explore, progresses

#: Explorer state: (step_from state, per-source committed flags).
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


def verify_system_liveness(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_states: int = 100_000,
) -> SystemLivenessResult:
    """Prove (or refute) deadlock-freedom over all environments."""
    sim = SkeletonSim(graph, variant=variant)
    step_from = sim.step_from
    has_shells = bool(sim.shell_names)
    low = sim.lowered

    def ticks(node_ids, phase):
        return tuple(low.domains[low.node_domain[i]].schedule[phase]
                     for i in node_ids)

    # Per phase: which sources tick, every stop choice of the sinks
    # (an idle sink stops), and the cooperative environment.
    src_ticks, stop_choices, cooperative_env = [], [], []
    for phase in range(low.hyperperiod):
        src_ticks.append(ticks(low.source_ids, phase))
        sink_ticks = ticks(low.sink_ids, phase)
        stop_choices.append(list(itertools.product(
            *[(False, True) if tick else (True,) for tick in sink_ticks])))
        cooperative_env.append(
            (src_ticks[phase], tuple(not tick for tick in sink_ticks)))

    def cooperative(machine):
        nxt, fires, _src_stops, _ambiguous = step_from(
            machine, *cooperative_env[machine[1]])
        return nxt, any(fires)

    transitions = ambiguous_states = 0

    def successors(state: _State):
        nonlocal transitions, ambiguous_states
        machine, committed = state
        phase = machine[1]
        # The cooperative step is one of this state's transitions; only
        # when it does not fire is the orbit beyond it followed.
        coop_env = cooperative_env[phase]
        coop_step = step_from(machine, *coop_env)
        if has_shells and not any(coop_step[1]) and not progresses(
                coop_step[0], cooperative):
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
                    else step_from(machine, offers, stops))
                ambiguous = ambiguous or amb
                next_committed = tuple(
                    (o and s) if tick else held
                    for o, s, tick, held in zip(
                        offers, src_stops, src_ticks[phase], committed))
                transitions += 1
                yield env, (nxt, next_committed)
        ambiguous_states += ambiguous

    initial: _State = (sim.initial_state, (False,) * len(sim.source_names))
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
        (tuple(n for n, o in zip(sim.source_names, offers) if o),
         tuple(n for n, s in zip(sim.sink_names, stops) if s))
        for (offers, stops), _state in steps[1:-1]
    ]
    return SystemLivenessResult(
        live=False,
        reachable_states=result.states_explored,
        transitions=transitions,
        stuck_state=steps[-1][1],
        ambiguous_states=ambiguous_states,
        witness=witness,
    )
