"""Explicit-state reachability: the one state-graph walk of ``verify``.

A *checked system* is anything exposing ``initial_states()`` and
``successors(state)``; successors raise
:class:`~repro.verify.monitors.Violation` when a safety monitor trips.
The engine explores breadth-first (so counterexamples are minimal),
keeps a predecessor map, and reconstructs the full trace on violation.
Every check in :mod:`repro.verify` walks its state graph through
:func:`explore`; :func:`progresses` is the exact progress test the
liveness checks apply to a state under their deterministic cooperative
environment.

This replaces the paper's use of Cadence SMV: the block state spaces
are tiny (hundreds to a few thousand product states with the abstract
payload alphabet), so exhaustive enumeration is both complete and fast.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from ..errors import StateSpaceExceeded
from .monitors import Violation


@dataclasses.dataclass
class Counterexample:
    """A minimal trace from reset to a property violation."""

    steps: List[Tuple[str, Hashable]]
    reason: str

    def render(self) -> str:
        lines = [f"violation: {self.reason}"]
        for i, (label, state) in enumerate(self.steps):
            lines.append(f"  cycle {i}: {label}  ->  {state}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.steps)


@dataclasses.dataclass
class ReachResult:
    """Outcome of an exhaustive exploration."""

    holds: bool
    states_explored: int
    counterexample: Optional[Counterexample] = None

    def __bool__(self) -> bool:
        return self.holds


def explore(
    initial_states: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Tuple[str, Hashable]]],
    max_states: int = 200_000,
) -> ReachResult:
    """Breadth-first exhaustive exploration.

    *successors* yields ``(transition label, next state)`` pairs and may
    raise :class:`Violation`.  Returns the verdict; on violation the
    counterexample lists the labelled transitions from an initial state.
    """
    queue: deque = deque()
    # predecessor: state -> (previous state, label)  (None for initials)
    pred: Dict[Hashable, Optional[Tuple[Hashable, str]]] = {}
    for state in initial_states:
        if state not in pred:
            pred[state] = None
            queue.append(state)

    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        if explored > max_states:
            raise StateSpaceExceeded(
                f"state space exceeded {max_states} states; raise "
                f"max_states or shrink the system"
            )
        try:
            for label, nxt in successors(state):
                if nxt not in pred:
                    pred[nxt] = (state, label)
                    queue.append(nxt)
        except Violation as violation:
            trace = _reconstruct(pred, state)
            trace.append(("(violating step)", state))
            return ReachResult(
                holds=False,
                states_explored=explored,
                counterexample=Counterexample(
                    steps=trace, reason=str(violation)
                ),
            )
    return ReachResult(holds=True, states_explored=explored)


def _reconstruct(
    pred: Dict[Hashable, Optional[Tuple[Hashable, str]]],
    state: Hashable,
) -> List[Tuple[str, Hashable]]:
    trace: List[Tuple[str, Hashable]] = []
    cursor: Optional[Hashable] = state
    while cursor is not None:
        entry = pred[cursor]
        if entry is None:
            trace.append(("(reset)", cursor))
            cursor = None
        else:
            prev, label = entry
            trace.append((label, cursor))
            cursor = prev
    trace.reverse()
    return trace


def reachable_states(
    initial_states: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Tuple[str, Hashable]]],
    max_states: int = 200_000,
) -> List[Hashable]:
    """All reachable states in breadth-first order (no monitors expected
    to fire)."""
    states: List[Hashable] = []

    def visit(state: Hashable) -> Iterable[Tuple[str, Hashable]]:
        states.append(state)
        return successors(state)

    explore(initial_states, visit, max_states=max_states)
    return states


def progresses(
    state: Hashable,
    step: Callable[[Hashable], Tuple[Hashable, bool]],
) -> bool:
    """Exact progress test on a deterministic finite system.

    *step* maps a state to ``(next state, progressed)``.  The orbit
    from *state* either makes progress or revisits a state; a revisit
    without progress means the orbit repeats forever and progress never
    comes, so no step bound is needed.
    """
    seen = {state}
    while True:
        state, progressed = step(state)
        if progressed:
            return True
        if state in seen:
            return False
        seen.add(state)
