"""A small LTL layer over the explicit-state engine.

The paper phrases its obligations informally ("any relay station keeps
its output on asserted stops").  This module lets such properties be
written as temporal-logic formulas and checked over the *lasso* paths
of a finite transition system — the standard semantics for
finite-state LTL model checking:

* safety formulas (``G p``, ``G (p -> X q)``) are checked over every
  reachable transition;
* liveness formulas (``G F p``) are checked over every reachable cycle
  (a cycle in which ``p`` never holds is a counterexample lasso).

Every checker walks the state graph with
:func:`~repro.verify.reach.explore`, the one explorer of this package.

Formulas are built from atoms (named predicates over states) with
``Not / And / Or / Implies / X / G / F / GF``.  The checker supports
the fragment that covers the paper's properties: invariants, one-step
implications (next), and recurrence — not full LTL-to-Büchi
translation, which the block-sized state spaces here do not warrant.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Hashable, Iterable, List, Optional

from ..graph.digraph import simple_cycles
from .monitors import Violation
from .reach import explore

Atom = Callable[[Hashable], bool]
#: ``find(state, successors)`` returns a witness list, or ``None``.
Finder = Callable[[Hashable, List[Hashable]], Optional[List[Hashable]]]


@dataclasses.dataclass(frozen=True)
class Prop:
    """Atomic proposition: a named predicate over states."""

    name: str
    test: Atom

    def __call__(self, state) -> bool:
        return bool(self.test(state))

    def __repr__(self) -> str:
        return self.name


def Not(p):      # noqa: N802 - logic-style constructor names
    return Prop(f"!{p!r}", lambda s: not p(s))


def And(p, q):   # noqa: N802
    return Prop(f"({p!r} & {q!r})", lambda s: p(s) and q(s))


def Or(p, q):    # noqa: N802
    return Prop(f"({p!r} | {q!r})", lambda s: p(s) or q(s))


def Implies(p, q):  # noqa: N802
    return Prop(f"({p!r} -> {q!r})", lambda s: (not p(s)) or q(s))


@dataclasses.dataclass
class LtlResult:
    """Verdict of an LTL check."""

    holds: bool
    formula: str
    states_explored: int
    witness: Optional[List[Hashable]] = None

    def __bool__(self) -> bool:
        return self.holds


class TransitionSystem:
    """A finite transition system: initial states + successor function."""

    def __init__(self, initial_states: Iterable[Hashable],
                 successors: Callable[[Hashable], Iterable[Hashable]]):
        self.initial_states = list(initial_states)
        self.successors = successors

    def first_violation(self, formula: str, find: Finder,
                        max_states: int = 200_000) -> LtlResult:
        """Explore until *find* returns a witness at some state.

        *find* sees each reachable state with its successors, in
        breadth-first order; the result holds when it never returns a
        witness.
        """
        witness: List[Hashable] = []

        def successors(state):
            nxt = list(self.successors(state))
            found = find(state, nxt)
            if found:
                witness.extend(found)
                raise Violation(formula)
            return [("", s) for s in nxt]

        result = explore(self.initial_states, successors,
                         max_states=max_states)
        return LtlResult(result.holds, formula, result.states_explored,
                         witness=witness or None)

    # -- checkers ---------------------------------------------------------

    def check_G(self, p: Prop, max_states: int = 200_000) -> LtlResult:
        """G p — *p* holds in every reachable state."""
        return self.first_violation(
            f"G {p!r}", lambda state, _succs: None if p(state) else [state],
            max_states)

    def check_G_implies_X(self, p: Prop, q: Prop,
                          max_states: int = 200_000) -> LtlResult:
        """G (p -> X q) — after any *p*-state, every successor satisfies
        *q*.  This is the shape of the paper's hold-on-stop property."""

        def find(state, succs):
            if p(state):
                for nxt in succs:
                    if not q(nxt):
                        return [state, nxt]
            return None

        return self.first_violation(f"G ({p!r} -> X {q!r})", find,
                                    max_states)

    def check_GF(self, p: Prop, max_states: int = 200_000) -> LtlResult:
        """G F p — *p* holds infinitely often on every infinite path.

        Violated iff some reachable cycle contains no *p*-state: the
        walk records the reachable graph, and a cycle among its
        non-*p* states is the counterexample lasso.
        """
        formula = f"G F {p!r}"
        graph: Dict[Hashable, List[Hashable]] = {}

        def record(state, succs):
            graph[state] = succs
            return None

        explored = self.first_violation(formula, record, max_states)
        avoiding = {s: [t for t in succs if not p(t)]
                    for s, succs in graph.items() if not p(s)}
        lasso = next(simple_cycles(avoiding), None)
        if lasso is not None:
            return LtlResult(False, formula, explored.states_explored,
                             witness=lasso + lasso[:1])
        return explored


def block_transition_system(kind: str, variant=None) -> TransitionSystem:
    """Transition system of one relay station under its legal environment.

    States are ``(block_state, upstream_state, last_io)`` where
    ``last_io = (out_token, stop_in, stop_out)`` records the observable
    I/O of the transition that *led here* — so atoms can speak about
    both state and signals.
    """
    from ..lid.variant import DEFAULT_VARIANT
    from . import fsm
    from .env import DownstreamState, UpstreamState

    variant = variant or DEFAULT_VARIANT
    initial = (fsm.initial_station(kind), UpstreamState(), None)

    def successors(state):
        rs, up, _last = state
        for present in up.choices():
            for stop_in in DownstreamState.choices():
                out_tok, stop_out = fsm.station_outputs(kind, rs, stop_in,
                                                        variant)
                next_rs = fsm.station_step(kind, rs, present, stop_in,
                                           variant)
                next_up = up.after(present, stop_out)
                yield (next_rs, next_up, (out_tok, stop_in, stop_out))

    return TransitionSystem([initial], successors)


# -- the paper's properties as LTL atoms --------------------------------------


def _io(state):
    return state[2]


OUTPUT_STOPPED = Prop(
    "valid_out & stop_in",
    lambda s: _io(s) is not None and _io(s)[0] is not None and _io(s)[1],
)


def held_token_reappears(kind: str, variant=None) -> LtlResult:
    """G (valid_out & stop_in -> X same_out): hold-on-stop, in LTL.

    The successor's ``last_io`` records the output *presented after*
    the stopped cycle, which must carry the same payload.
    """
    ts = block_transition_system(kind, variant)

    def find(state, succs):
        io = _io(state)
        if io is None or io[0] is None or not io[1]:
            return None
        for nxt in succs:
            nxt_io = _io(nxt)
            if nxt_io is None or nxt_io[0] != io[0]:
                return [state, nxt]
        return None

    return ts.first_violation(
        "G (valid_out & stop_in -> X out_unchanged)", find)


def eventually_emits(kind: str, variant=None) -> LtlResult:
    """G F (output consumable): on every infinite run, tokens keep
    getting through — the recurrence reading of liveness.

    True for the environment that includes stop-forever paths only if
    we restrict to *fair* paths; here we check the weaker but still
    informative statement on the cooperative-downstream system.
    """
    from ..lid.variant import DEFAULT_VARIANT
    from . import fsm
    from .env import EagerUpstream

    variant = variant or DEFAULT_VARIANT
    initial = (fsm.initial_station(kind), EagerUpstream(), None)

    def successors(state):
        rs, up, _last = state
        present = up.choices()[0]
        stop_in = False
        out_tok, stop_out = fsm.station_outputs(kind, rs, stop_in, variant)
        next_rs = fsm.station_step(kind, rs, present, stop_in, variant)
        yield (next_rs, up.after(present, stop_out),
               (out_tok, stop_in, stop_out))

    ts = TransitionSystem([initial], successors)
    emits = Prop("emits",
                 lambda s: _io(s) is not None and _io(s)[0] is not None
                 and not _io(s)[1])
    return ts.check_GF(emits)
