"""Compiled skeleton steps: specialize the cycle loop per topology.

An interpreter walks the lowered tables every cycle — list indexing,
kind dispatch, method calls.  For a *fixed* topology all of that is
constant: which hop reads which register, the order the stop network
settles in, which relay updates are registered (and therefore fixed
before the settle even starts).  The emitter in
:mod:`repro.skeleton.codegen.planes` bakes those constants into
straight-line Python over plane words (bit *p* of every int is
instance *p*), compiled once via ``compile()``/``exec()`` and reused
by every :class:`~repro.skeleton.bitsim.BitplaneSkeletonSim` that
shares the plan, GALS graphs included.  Its module is imported on
first use, so a process that only runs the scalar reference never
loads it.

Each plan has two entry points from one body:

* ``run_cycles(sim, n)`` — state loaded into locals once, the unrolled
  body looped ``n`` times, written back once (histories and telemetry
  still accumulate per cycle);
* ``cycle(sim)`` — ``run_cycles(sim, 1)`` (drives ``step()`` and the
  periodicity detection).

Bit-exactness is structural, not incidental: the generated source
replicates the scalar reference step (:class:`~repro.skeleton.sim.
SkeletonSim`) operation for operation on every plane (same fixed-stop
partition, same settle order, same guard counter, same register-update
equations).  The differential conformance suite
(``tests/skeleton/test_backend_conformance.py``) holds every plan to
the byte.

**Plan key vs runtime data.**  The key (:attr:`CompiledPlan.key`) holds
everything the generated source bakes in: the counter form (plain int
deltas for a one-plane batch, vertical counters otherwise; see
:func:`~repro.skeleton.codegen.planes.generate_plane_source`), the
structural fingerprint *and* the declaration order the tables are
indexed by (the fingerprint sorts nodes and edges, so two builds of
one graph in different orders share a fingerprint but not a hop
table), the clock domains, the variant and fixpoint, whether the
ambiguity probe is emitted, and the telemetry flags.  Everything else
is **runtime data** read from the simulator on every call and never
baked in: the width and mask of a multi-plane batch, source and sink
scripts and their spans, source holds, bridge pokes, the per-phase
clock table and the cycle count.  One plan therefore serves every
script combination of a campaign.

Plans live in an in-process LRU of :data:`PLAN_CACHE_SIZE` plans keyed
by the plan key, and a plan enters it on its second use: building a
thousand simulators over one topology compiles once (see
:data:`STATS`; the EXP-C1 bench asserts this), and a long-lived
process that meets a new topology per request stays bounded.  The
last compiled plan waits in one side slot, where a hit counts like an
LRU hit, and the keys of the last :data:`PLAN_CACHE_SIZE` plans used
only once are remembered without their plans (a weak reference finds
a plan that a live simulator still holds).  So a stream of one-off
topologies (every ``dag:`` seed) never evicts a plan that recurs.

**A third form: the liveness transition.**  The emitter's equation
writers live in :mod:`repro.skeleton.codegen.equations`.  From the
same writers :func:`transition_for` compiles the exhaustive liveness
explorer's one-cycle transition, :meth:`~repro.skeleton.sim.SkeletonSim.
step_from` over 0/1 ints.  Transitions share the plans' cache, its
admission rule and :data:`STATS` under their own key (structural
fingerprint, declaration order and variant), and their path never
imports the plane emitter's module.

Layering: this package may import ``repro.ir`` only (enforced by
``tools/check_layering.py``); the protocol variant is consumed
duck-typed (``discards_void_stops`` + ``str()``), never via a
``repro.lid`` import.
"""

from __future__ import annotations

import collections
import dataclasses
import weakref
from typing import Any, Callable, Dict, Tuple

from ...ir import LoweredSystem

__all__ = [
    "CodegenStats",
    "CompiledPlan",
    "PLAN_CACHE_SIZE",
    "STATS",
    "clear_plan_cache",
    "plan_for",
    "transition_for",
]

#: Compiled plans kept in-process (least recently used evicted first),
#: and keys remembered of plans used once.
PLAN_CACHE_SIZE = 16


@dataclasses.dataclass
class CodegenStats:
    """Process-wide plan counters (compile-reuse instrumentation)."""

    compiles: int = 0
    plan_hits: int = 0
    evictions: int = 0

    def reset(self) -> None:
        self.compiles = 0
        self.plan_hits = 0
        self.evictions = 0


#: Global counters: how often a plan was generated+compiled vs. served
#: from the in-process cache, and how many plans the LRU bound pushed
#: out.
#: ``benchmarks/bench_codegen.py`` uses this to show one compile serves
#: many runs.
STATS = CodegenStats()


@dataclasses.dataclass(frozen=True)
class CompiledPlan:
    """One compiled plan: the cycle functions plus their provenance."""

    key: Tuple
    source: str
    cycle: Callable
    run_cycles: Callable


#: In-process plan cache, least recently used first.  Every new
#: ``dag:``/``loopy:`` seed is a new topology and so a new plan; the
#: bound keeps a long-lived process flat, and admission on second use
#: keeps those one-off plans out.
_PLAN_CACHE: "collections.OrderedDict[Tuple, CompiledPlan]" = \
    collections.OrderedDict()
#: The side slot: the last compiled plan, by key (at most one entry).
_LAST_COMPILED: Dict[Tuple, CompiledPlan] = {}
#: Keys compiled once and not admitted, oldest first, each with a weak
#: reference to its plan: the list never keeps a plan alive.
_SEEN_ONCE: "collections.OrderedDict[Tuple, weakref.ref]" = \
    collections.OrderedDict()


def clear_plan_cache() -> None:
    """Drop every in-process plan and key (tests and benchmarks)."""
    _PLAN_CACHE.clear()
    _LAST_COMPILED.clear()
    _SEEN_ONCE.clear()


def _compile(source: str, tag: str) -> Dict[str, Any]:
    """The namespace the generated module *source* defines."""
    namespace: Dict[str, Any] = {}
    exec(compile(source, f"<repro-codegen:{tag}>", "exec"), namespace)
    return namespace


def _declaration_order(low: LoweredSystem) -> Tuple:
    """What the fingerprint sorts away but the generated code indexes.

    The structural fingerprint sorts nodes and edges, so two builds of
    one graph in different orders share it; their shell, hop, register
    and relay tables (all in declaration order) do not.  Node names in
    order fix the shell/source/sink tables and the domain order; the
    edges in order fix the hop, register, relay and bridge tables.
    """
    bridge_depth = [b.depth for b in low.bridges]
    return (
        tuple(n.name for n in low.nodes),
        tuple((e.src_name, e.src_port, e.dst_name, e.dst_port, e.relays,
               None if e.bridge is None else bridge_depth[e.bridge])
              for e in low.edges),
        tuple((d.name, str(d.rate)) for d in low.domains),
    )


def _plan_key(
    low: LoweredSystem,
    variant,
    *,
    one_plane: bool,
    fixpoint: str,
    detect_ambiguity: bool,
    metrics_on: bool,
    events_on: bool,
) -> Tuple:
    """Everything a generated plan bakes in, and nothing it reads.

    Scripts, the width of a multi-plane batch, pokes and the cycle
    count are runtime data and deliberately absent (see the module
    docstring).
    """
    return (
        "plain" if one_plane else "vertical",  # the counter form
        low.fingerprint,
        _declaration_order(low),
        str(variant),
        bool(variant.discards_void_stops),
        fixpoint,
        bool(detect_ambiguity),
        bool(low.may_be_ambiguous),  # ambiguity probe; one pass vs sweep
        bool(metrics_on),
        bool(events_on),
    )


def _cached(key: Tuple, build: Callable[[], Any]) -> Any:
    """The cached entry for *key*, or *build()*'s, under the admission
    rule: an entry enters the LRU on its second use (see the module
    docstring)."""
    entry = _PLAN_CACHE.get(key)
    if entry is not None:
        _PLAN_CACHE.move_to_end(key)
        STATS.plan_hits += 1
        return entry
    entry = _LAST_COMPILED.get(key)
    if entry is None:
        seen = _SEEN_ONCE.get(key)
        # Alive while a simulator holds it.
        entry = seen() if seen is not None else None
    if entry is not None:
        STATS.plan_hits += 1
    else:
        entry = build()
        STATS.compiles += 1
        _LAST_COMPILED.clear()
        _LAST_COMPILED[key] = entry
        if key not in _SEEN_ONCE:  # a first use: remember the key only
            _SEEN_ONCE[key] = weakref.ref(entry)
            if len(_SEEN_ONCE) > PLAN_CACHE_SIZE:
                _SEEN_ONCE.popitem(last=False)
            return entry
    # A second use: admit the entry.
    _SEEN_ONCE.pop(key, None)
    _PLAN_CACHE[key] = entry
    while len(_PLAN_CACHE) > PLAN_CACHE_SIZE:
        _PLAN_CACHE.popitem(last=False)
        STATS.evictions += 1
    return entry


def plan_for(
    low: LoweredSystem,
    variant,
    *,
    one_plane: bool,
    fixpoint: str,
    detect_ambiguity: bool,
    metrics_on: bool,
    events_on: bool,
) -> CompiledPlan:
    """Compiled plan for *(low, variant, engine options)*, cached.

    *low* must be a skeleton view.  *one_plane* is true for a batch of
    width 1, whose plan keeps its counters as plain ints (the simulator
    derives it from its batch; it is not a user option).  *variant* is
    duck-typed: anything with ``discards_void_stops`` and a stable
    ``str()`` works (the layering rules keep ``repro.lid`` out of this
    package).
    """
    key = _plan_key(low, variant, one_plane=one_plane, fixpoint=fixpoint,
                    detect_ambiguity=detect_ambiguity,
                    metrics_on=metrics_on, events_on=events_on)

    def build() -> CompiledPlan:
        # Imported on first use: a process that never compiles a plan
        # never compiles the emitter's module.
        from .planes import generate_plane_source

        source = generate_plane_source(
            low,
            is_casu=bool(variant.discards_void_stops),
            one_plane=one_plane,
            fixpoint=fixpoint,
            detect_ambiguity=detect_ambiguity,
            metrics_on=metrics_on,
            events_on=events_on,
        )
        namespace = _compile(source, low.fingerprint[:12])
        return CompiledPlan(key=key, source=source,
                            cycle=namespace["cycle"],
                            run_cycles=namespace["run_cycles"])

    return _cached(key, build)


def transition_for(low: LoweredSystem, variant) -> Callable:
    """Compiled one-cycle transition of *low* (a skeleton view), cached.

    ``transition(registers, phase, offers, stops) -> (next registers,
    fires, source stops, ambiguous)`` is
    :meth:`~repro.skeleton.sim.SkeletonSim.step_from` over 0/1 ints
    with one flat register tuple (see
    :func:`~repro.skeleton.codegen.equations.generate_transition_source`),
    written by the plane emitter's equation writers.  It is served from
    the plan cache under its own key: on a small system the compile
    costs more than the proof.
    """
    key = ("transition", low.fingerprint, _declaration_order(low),
           str(variant), bool(variant.discards_void_stops))

    def build() -> Callable:
        # The equation writers without the plane emitter: the liveness
        # path never imports planes.py.
        from .equations import generate_transition_source

        source = generate_transition_source(
            low, is_casu=bool(variant.discards_void_stops))
        return _compile(source, f"{low.fingerprint[:12]}:transition")[
            "transition"]

    return _cached(key, build)
