"""Block-level progress checks (the liveness half of the campaign).

The paper handles system liveness by topology arguments plus skeleton
simulation (:mod:`repro.skeleton.deadlock`).  At the block level the
relevant obligation is *progress*: with a willing producer and a
never-stopping consumer, a block must keep emitting tokens — no
reachable state may be a local livelock.

:func:`check_progress` explores the product of a block with the
arbitrary environment and tests every reachable state exactly under the
eager / cooperative one.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Optional

from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from . import fsm
from .env import EagerUpstream
from .monitors import Violation
from .reach import explore, progresses


@dataclasses.dataclass
class ProgressResult:
    """Verdict of a progress check."""

    block: str
    holds: bool
    states_explored: int
    stuck_state: Optional[Hashable] = None


def check_progress(
    kind: str = "full",
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> ProgressResult:
    """Every reachable relay-station state eventually emits.

    Reachability is explored under the *arbitrary* environment (any
    offer pattern, any stop pattern); progress from each state is then
    required under the *cooperative* one — i.e. once the downstream
    relents, the block must move.  That environment is deterministic, so
    the test follows the orbit from the state until the station emits
    or a state repeats (:func:`~repro.verify.reach.progresses`): exact,
    with no cycle bound.  This is the standard weak-fairness phrasing
    of "no token gets stuck inside the station".
    """

    def cooperative(state):
        rs, up = state
        present = up.choices()[0]
        out_tok, stop_out = fsm.station_outputs(kind, rs, False, variant)
        next_rs = fsm.station_step(kind, rs, present, False, variant)
        return (next_rs, up.after(present, stop_out)), out_tok is not None

    def successors(state):
        if not progresses(state, cooperative):
            raise Violation("no emission under the cooperative environment")
        rs, up = state
        for present in up.choices():
            for stop_in in (False, True):
                _out, stop_out = fsm.station_outputs(kind, rs, stop_in,
                                                     variant)
                next_rs = fsm.station_step(kind, rs, present, stop_in,
                                           variant)
                yield "", (next_rs, up.after(present, stop_out))

    initial = (fsm.initial_station(kind), EagerUpstream())
    result = explore([initial], successors)
    return ProgressResult(
        block=f"{kind} relay station ({variant})",
        holds=result.holds,
        states_explored=result.states_explored,
        stuck_state=(None if result.holds
                     else result.counterexample.steps[-1][1]),
    )
