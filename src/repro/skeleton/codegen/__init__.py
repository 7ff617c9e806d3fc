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
by the plan key: building a thousand simulators over one topology
compiles once (see :data:`STATS`; the EXP-C1 bench asserts this), and
a long-lived process that meets a new topology per request stays
bounded.

Layering: this package may import ``repro.ir`` only (enforced by
``tools/check_layering.py``); the protocol variant is consumed
duck-typed (``discards_void_stops`` + ``str()``), never via a
``repro.lid`` import.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Any, Callable, Dict, Tuple

from ...ir import LoweredSystem

__all__ = [
    "CodegenStats",
    "CompiledPlan",
    "PLAN_CACHE_SIZE",
    "STATS",
    "clear_plan_cache",
    "plan_for",
]

#: Compiled plans kept in-process (least recently used evicted first).
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
#: bound keeps a long-lived process flat.
_PLAN_CACHE: "collections.OrderedDict[Tuple, CompiledPlan]" = \
    collections.OrderedDict()


def clear_plan_cache() -> None:
    """Drop every in-process plan (tests and benchmarks)."""
    _PLAN_CACHE.clear()


def _compile(source: str, tag: str) -> Tuple[Callable, Callable]:
    namespace: Dict[str, Any] = {}
    code = compile(source, f"<repro-codegen:{tag}>", "exec")
    exec(code, namespace)
    return namespace["cycle"], namespace["run_cycles"]


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
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _PLAN_CACHE.move_to_end(key)
        STATS.plan_hits += 1
        return plan

    # Imported on first use: a process that never compiles a plan never
    # compiles the emitter's module.
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
    cycle, run_cycles = _compile(source, low.fingerprint[:12])
    STATS.compiles += 1
    plan = CompiledPlan(key=key, source=source, cycle=cycle,
                        run_cycles=run_cycles)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > PLAN_CACHE_SIZE:
        _PLAN_CACHE.popitem(last=False)
        STATS.evictions += 1
    return plan
