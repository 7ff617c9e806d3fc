"""Compiled skeleton steps: specialize the cycle loop per topology.

The interpreters walk the lowered tables every cycle — list indexing,
kind dispatch, method calls.  For a *fixed* topology all of that is
constant: which hop reads which register, the Gauss–Seidel sweep order
of the stop network, which relay updates are registered (and therefore
fixed before the sweep even starts).  This module bakes those
constants into straight-line Python source — every hop, register and
script phase a local variable, no per-cycle dispatch or dict lookups —
compiled once via ``compile()``/``exec()`` and reused for every
simulator that shares the plan.

Two emitters share one plan cache:

* :func:`generate_source` — the **scalar** step, one instance of
  Python bools; backs :class:`CodegenSkeletonSim`;
* :func:`~repro.skeleton.codegen.planes.generate_plane_source` — the
  **bit-plane** step over plane words (bit *p* of every int is
  instance *p*); backs :class:`~repro.skeleton.bitsim.
  BitplaneSkeletonSim`, GALS graphs included.  Its module is imported
  on first use, so a process that never runs a batch never loads it.

Each emits two entry points from one body:

* ``cycle(sim)`` — advance one cycle (drives ``step()`` and the
  periodicity detection);
* ``run_cycles(sim, n)`` — the campaign fast path: state loaded into
  locals once, the unrolled body looped ``n`` times, written back once
  (histories and telemetry still accumulate per cycle).

Bit-exactness is structural, not incidental: the generated source
replicates the reference step operation for operation (same fixed-stop
partition, same sweep order, same guard counter, same register-update
equations).  :class:`CodegenSkeletonSim` subclasses ``SkeletonSim`` so
that state layout, ``run()`` periodicity detection,
``metrics_snapshot()`` and ``external_step()`` are *shared code*, not
parallel implementations.  The differential conformance suite
(``tests/skeleton/test_backend_conformance.py``) holds every engine to
the byte.

**Plan key vs runtime data.**  The key (:attr:`CompiledPlan.key`) holds
everything the generated source bakes in: the structural fingerprint
*and* the declaration order the tables are indexed by (the fingerprint
sorts nodes and edges, so two builds of one graph in different orders
share a fingerprint but not a hop table), the clock domains, the
emitter, the variant and fixpoint, whether the ambiguity probe is
emitted, and the telemetry flags.  Everything else is **runtime data**
read from the simulator on every call and never baked in: batch width
and mask, source and sink scripts and their spans, source holds,
bridge pokes and the cycle count.  One plan therefore serves every
script combination of a campaign.

Plans are cached at two levels:

* **in-process** — an LRU of :data:`PLAN_CACHE_SIZE` plans keyed by
  the plan key; building a thousand simulators over one topology
  compiles once (see :data:`STATS`, the EXP-C1 bench asserts this),
  and a long-lived process that meets a new topology per request stays
  bounded;
* **on disk (optional)** — pass ``compile_cache=`` a
  :class:`repro.exec.cache.ResultCache`: the generated *source text*
  is stored under the exec-cache key discipline (schema + git_rev +
  plan key), so a second process skips generation and recompiles from
  the cached source.  Code objects are process-bound; source is the
  durable artifact.

Layering: this module may import ``repro.ir`` and ``repro.exec.cache``
only (enforced by ``tools/check_layering.py``); the protocol variant is
consumed duck-typed (``discards_void_stops`` + ``str()``), never via a
``repro.lid`` import.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...ir import RS_FULL, RS_HALF, RS_HALF_REG, SHELL, SRC, LoweredSystem
from ..sim import SkeletonSim

__all__ = [
    "CODEGEN_SCHEMA",
    "CodegenSkeletonSim",
    "CodegenStats",
    "CompiledPlan",
    "PLAN_CACHE_SIZE",
    "STATS",
    "clear_plan_cache",
    "generate_source",
    "plan_for",
]

#: Folded into every disk-cache key; bump when the generated source's
#: meaning changes in a way the plan key cannot see.
CODEGEN_SCHEMA = "repro-codegen/v2"

#: Compiled plans kept in-process (least recently used evicted first).
PLAN_CACHE_SIZE = 16


@dataclasses.dataclass
class CodegenStats:
    """Process-wide plan counters (compile-reuse instrumentation)."""

    compiles: int = 0
    plan_hits: int = 0
    disk_hits: int = 0
    evictions: int = 0

    def reset(self) -> None:
        self.compiles = 0
        self.plan_hits = 0
        self.disk_hits = 0
        self.evictions = 0


#: Global counters: how often a plan was generated+compiled vs. served
#: from the in-process cache vs. recompiled from disk-cached source,
#: and how many plans the LRU bound pushed out.
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


# -- source generation ----------------------------------------------------


def _tuple_expr(items: List[str]) -> str:
    if not items:
        return "()"
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


def _accum_lines(out: List[str], name: str, terms: List[str]) -> None:
    """``name += (t0 + t1 + ...)`` wrapped to readable line widths."""
    if not terms:
        return
    out.append(f"{name} += (")
    for i in range(0, len(terms), 6):
        chunk = " + ".join(terms[i:i + 6])
        tail = " +" if i + 6 < len(terms) else ""
        out.append(f"    {chunk}{tail}")
    out.append(")")


def generate_source(
    low: LoweredSystem,
    *,
    is_casu: bool,
    fixpoint: str,
    detect_ambiguity: bool,
    metrics_on: bool,
    events_on: bool,
) -> str:
    """Emit the specialized module source for *low*.

    *low* must already be the :meth:`~repro.ir.LoweredSystem.
    skeleton_view` (queued shells desugared) — exactly what
    ``SkeletonSim.lowered`` holds.  The emitted ``cycle``/``run_cycles``
    functions advance the sim with the same observable effects as
    ``SkeletonSim.step`` called once / ``n`` times.
    """
    hops = low.hops
    n_hops = len(hops)
    n_shells = len(low.shell_names)
    n_sources = len(low.source_names)
    n_regs = len(low.shell_regs)
    rs_kinds = [r.tag for r in low.relays]
    n_rs = len(rs_kinds)
    shell_in = [list(x) for x in low.shell_in_hops]
    shell_out_pairs = [
        [(hop_out, hops[hop_out].producer_reg) for hop_out in outs]
        for outs in low.shell_out_hops
    ]
    src_out = [list(x) for x in low.source_out_hops]
    sink_in = list(low.sink_in_hop)
    rs_in = list(low.relay_in_hop)
    rs_out = list(low.relay_out_hop)

    # The same derived partitions SkeletonSim._build computes: which
    # in-hop stops are fixed before the sweep, which are settled.
    full_fixed = [(i, rs_in[i]) for i, k in enumerate(rs_kinds)
                  if k == RS_FULL]
    halfreg_fixed = [(i, rs_in[i]) for i, k in enumerate(rs_kinds)
                     if k == RS_HALF_REG]
    sink_fixed = [(j, h) for j, h in enumerate(sink_in) if h is not None]
    half_inout = [(i, rs_in[i], rs_out[i])
                  for i, k in enumerate(rs_kinds) if k == RS_HALF]
    hop_internal = [h.consumer_kind in (SHELL, RS_HALF) for h in hops]
    ambiguity = detect_ambiguity and low.may_be_ambiguous
    guard = n_hops + n_shells + 2

    def fire_expr(shell_id: int, sv: str) -> str:
        terms = [f"v{h}" for h in shell_in[shell_id]]
        for hop_out, reg in shell_out_pairs[shell_id]:
            if is_casu:
                terms.append(f"not ({sv}{hop_out} and r{reg})")
            else:
                terms.append(f"not {sv}{hop_out}")
        return " and ".join(terms) if terms else "True"

    # -- prologue: load state and cached refs into locals ----------------
    prologue: List[str] = []
    pro = prologue.append
    pro("cycle_no = sim.cycle")
    if n_regs:
        tail = "," if n_regs == 1 else ""
        pro(", ".join(f"r{g}" for g in range(n_regs))
            + f"{tail} = sim.shell_reg")
    if n_rs:
        tail = "," if n_rs == 1 else ""
        pro(", ".join(f"m{i}" for i in range(n_rs)) + f"{tail} = sim.rs_main")
        pro(", ".join(f"a{i}" for i in range(n_rs)) + f"{tail} = sim.rs_aux")
        pro(", ".join(f"q{i}" for i in range(n_rs))
            + f"{tail} = sim.rs_stop_reg")
    for s in range(n_sources):
        pro(f"_p{s} = sim.src_pattern[{s}]")
        pro(f"ph{s} = sim.src_phase[{s}]")
    for sink_id, _hop in sink_fixed:
        pro(f"_k{sink_id} = sim.sink_pattern[{sink_id}]")
    pro("_fire_hist = sim.fire_history")
    pro("_accept_hist = sim.accept_history")
    if ambiguity:
        pro("_amb = sim.ambiguous_cycles")
    pro("_stops_t = 0")
    pro("_voids_t = 0")
    pro("_internal_t = 0")
    if metrics_on:
        pro("_hs = sim.hop_stall_cycles")
        if n_rs:
            pro("_occ = sim.rs_occupancy_counts")
    if events_on:
        pro("_ev = sim.telemetry.events")

    # -- body: one cycle over locals only --------------------------------
    body: List[str] = []
    emit = body.append
    for s in range(n_sources):
        emit(f"pv{s} = _p{s}[ph{s} % len(_p{s})]")
    for sink_id, _hop in sink_fixed:
        emit(f"sp{sink_id} = _k{sink_id}[cycle_no % len(_k{sink_id})]")

    emit("# forward valids: one local per hop")
    for h, hop in enumerate(hops):
        if hop.producer_kind == SRC:
            emit(f"v{h} = pv{hop.producer_id}")
        elif hop.producer_kind == SHELL:
            emit(f"v{h} = r{hop.producer_reg}")
        else:
            emit(f"v{h} = m{hop.producer_id}")

    def emit_settle(sv: str, mode: str) -> None:
        pessimistic = mode == "greatest"
        fixed_hops = set()
        for rs_id, hop_in in full_fixed:
            emit(f"{sv}{hop_in} = q{rs_id}")
            fixed_hops.add(hop_in)
        for rs_id, hop_in in halfreg_fixed:
            emit(f"{sv}{hop_in} = m{rs_id}")
            fixed_hops.add(hop_in)
        for sink_id, hop_in in sink_fixed:
            emit(f"{sv}{hop_in} = sp{sink_id}")
            fixed_hops.add(hop_in)
        for h in range(n_hops):
            if h not in fixed_hops:
                emit(f"{sv}{h} = {pessimistic}")
        if not half_inout and not any(shell_in):
            return  # nothing to settle: every stop is fixed/scripted
        emit("_changed = True")
        emit(f"_guard = {guard}")
        emit("while _changed and _guard > 0:")
        emit("    _changed = False")
        emit("    _guard -= 1")
        for rs_id, hop_in, hop_out in half_inout:
            if is_casu:
                emit(f"    _n = {sv}{hop_out} and m{rs_id}")
            else:
                emit(f"    _n = {sv}{hop_out}")
            emit(f"    if {sv}{hop_in} != _n:")
            emit(f"        {sv}{hop_in} = _n")
            emit("        _changed = True")
        for i in range(n_shells):
            if not shell_in[i]:
                continue  # a stall with no inputs presses on nothing
            emit(f"    _st = not ({fire_expr(i, sv)})")
            for hop_in in shell_in[i]:
                if is_casu:
                    emit(f"    _n = _st and v{hop_in}")
                else:
                    emit("    _n = _st")
                emit(f"    if {sv}{hop_in} != _n:")
                emit(f"        {sv}{hop_in} = _n")
                emit("        _changed = True")

    emit(f"# settle the monotone stop network ({fixpoint} fixpoint, "
         "Gauss-Seidel)")
    emit_settle("s", fixpoint)
    if ambiguity:
        alt = "greatest" if fixpoint == "least" else "least"
        emit(f"# ambiguity probe: settle again under the {alt} fixpoint")
        emit_settle("t", alt)
        s_tuple = _tuple_expr([f"s{h}" for h in range(n_hops)])
        t_tuple = _tuple_expr([f"t{h}" for h in range(n_hops)])
        emit(f"if {t_tuple} != {s_tuple}:")
        emit("    _amb.append(cycle_no)")
        if events_on:
            emit("    _ev.emit('fixpoint', 'ambiguous', cycle_no)")

    # Paper-claim counters (accumulated in locals, written back once).
    _accum_lines(body, "_stops_t", [f"s{h}" for h in range(n_hops)])
    _accum_lines(body, "_voids_t",
                 [f"(s{h} and not v{h})" for h in range(n_hops)])
    _accum_lines(body, "_internal_t",
                 [f"(s{h} and not v{h})" for h in range(n_hops)
                  if hop_internal[h]])
    if metrics_on:
        for h in range(n_hops):
            emit(f"if s{h}:")
            emit(f"    _hs[{h}] += 1")

    for i in range(n_shells):
        emit(f"f{i} = {fire_expr(i, 's')}")
    for j, hop in enumerate(sink_in):
        if hop is None:
            emit(f"ac{j} = False")
        else:
            emit(f"ac{j} = v{hop} and not s{hop}")

    emit("# edge: shell out-registers and relay stations")
    for i in range(n_shells):
        for hop_out, reg in shell_out_pairs[i]:
            emit(f"nr{reg} = True if f{i} else (r{reg} and s{hop_out})")
    new_main: List[str] = []
    new_aux: List[str] = []
    new_stop: List[str] = []
    for rs_id, kind in enumerate(rs_kinds):
        hop_in, hop_out = rs_in[rs_id], rs_out[rs_id]
        if kind == RS_FULL:
            emit(f"_acc = v{hop_in} and not q{rs_id}")
            emit(f"_con = (not m{rs_id}) or (not s{hop_out})")
            emit(f"if a{rs_id}:")
            emit("    if _con:")
            emit(f"        nm{rs_id} = a{rs_id}")
            emit(f"        na{rs_id} = False")
            emit(f"        nq{rs_id} = False")
            emit("    else:")
            emit(f"        nm{rs_id} = m{rs_id}")
            emit(f"        na{rs_id} = a{rs_id}")
            emit(f"        nq{rs_id} = q{rs_id}")
            emit("elif _con:")
            emit(f"    nm{rs_id} = _acc")
            emit(f"    na{rs_id} = a{rs_id}")
            emit(f"    nq{rs_id} = False")
            emit("elif _acc:")
            emit(f"    nm{rs_id} = m{rs_id}")
            emit(f"    na{rs_id} = True")
            emit(f"    nq{rs_id} = True")
            emit("else:")
            emit(f"    nm{rs_id} = m{rs_id}")
            emit(f"    na{rs_id} = a{rs_id}")
            emit(f"    nq{rs_id} = q{rs_id}")
            new_main.append(f"nm{rs_id}")
            new_aux.append(f"na{rs_id}")
            new_stop.append(f"nq{rs_id}")
        else:  # half variants share the single-register update
            emit(f"if (not m{rs_id}) or (not s{hop_out}):")
            emit(f"    nm{rs_id} = v{hop_in} and not s{hop_in}")
            emit("else:")
            emit(f"    nm{rs_id} = m{rs_id}")
            new_main.append(f"nm{rs_id}")
            new_aux.append(f"a{rs_id}")
            new_stop.append(f"q{rs_id}")

    if metrics_on and n_rs:
        for rs_id in range(n_rs):
            emit(f"_occ[{rs_id}][(1 if {new_main[rs_id]} else 0)"
                 f" + (1 if {new_aux[rs_id]} else 0)] += 1")
    if events_on:
        for i, name in enumerate(low.shell_names):
            emit(f"if f{i}:")
            emit(f"    _ev.emit('token', 'fire', cycle_no, block={name!r})")
        for j, name in enumerate(low.sink_names):
            emit(f"if ac{j}:")
            emit(f"    _ev.emit('token', 'accept', cycle_no, sink={name!r})")
        for h in range(n_hops):
            emit(f"if s{h}:")
            emit(f"    _ev.emit('stall', 'assert', cycle_no, "
                 f"channel={low.hop_names[h]!r}, valid=v{h})")

    # Source script phases (a held presented token is re-presented).
    for s in range(n_sources):
        if src_out[s]:
            held = " or ".join(f"s{h}" for h in src_out[s])
            emit(f"if not (pv{s} and ({held})):")
            emit(f"    ph{s} = (ph{s} + 1) % len(_p{s})")
        else:
            emit(f"ph{s} = (ph{s} + 1) % len(_p{s})")

    # Commit the edge: rebind register locals to their new values.
    for g in range(n_regs):
        emit(f"r{g} = nr{g}")
    for rs_id in range(n_rs):
        if new_main[rs_id] != f"m{rs_id}":
            emit(f"m{rs_id} = {new_main[rs_id]}")
        if new_aux[rs_id] != f"a{rs_id}":
            emit(f"a{rs_id} = {new_aux[rs_id]}")
        if new_stop[rs_id] != f"q{rs_id}":
            emit(f"q{rs_id} = {new_stop[rs_id]}")
    emit(f"_fires = {_tuple_expr([f'f{i}' for i in range(n_shells)])}")
    emit(f"_accepts = {_tuple_expr([f'ac{j}' for j in range(len(sink_in))])}")
    emit("_fire_hist.append(_fires)")
    emit("_accept_hist.append(_accepts)")
    emit("cycle_no += 1")

    # -- epilogue: write state back to the sim ---------------------------
    epilogue: List[str] = []
    epi = epilogue.append
    epi("sim.shell_reg = [" + ", ".join(f"r{g}" for g in range(n_regs))
        + "]")
    epi("sim.rs_main = [" + ", ".join(f"m{i}" for i in range(n_rs)) + "]")
    epi("sim.rs_aux = [" + ", ".join(f"a{i}" for i in range(n_rs)) + "]")
    epi("sim.rs_stop_reg = [" + ", ".join(f"q{i}" for i in range(n_rs))
        + "]")
    for s in range(n_sources):
        epi(f"sim.src_phase[{s}] = ph{s}")
    epi("sim.cycle = cycle_no")
    epi("sim.stop_assertions_total += _stops_t")
    epi("sim.stops_on_voids_total += _voids_t")
    epi("sim.internal_stops_on_voids_total += _internal_t")

    # -- assemble the module ---------------------------------------------
    out: List[str] = []
    put = out.append
    put('"""Generated by repro.skeleton.codegen — do not edit.')
    put("")
    put(f"topology: {low.name}  fingerprint: {low.fingerprint}")
    put(f"variant: {'casu' if is_casu else 'carloni'}  "
        f"fixpoint: {fixpoint}  ambiguity: {ambiguity}  "
        f"metrics: {metrics_on}  events: {events_on}")
    put('"""')
    put("")
    put("")
    put("def cycle(sim):")
    for line in prologue:
        put("    " + line)
    for line in body:
        put("    " + line)
    for line in epilogue:
        put("    " + line)
    put("    return _fires, _accepts")
    put("")
    put("")
    put("def run_cycles(sim, n):")
    for line in prologue:
        put("    " + line)
    put("    for _ in range(n):")
    for line in body:
        put("        " + line)
    for line in epilogue:
        put("    " + line)
    put("")
    return "\n".join(out)


# -- plan cache -----------------------------------------------------------


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
    planes: bool,
    fixpoint: str,
    detect_ambiguity: bool,
    metrics_on: bool,
    events_on: bool,
) -> Tuple:
    """Everything a generated plan bakes in, and nothing it reads.

    Scripts, batch width, pokes and the cycle count are runtime data
    and deliberately absent (see the module docstring).
    """
    return (
        "planes" if planes else "scalar",
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
    fixpoint: str,
    detect_ambiguity: bool,
    metrics_on: bool,
    events_on: bool,
    planes: bool = False,
    disk_cache=None,
) -> CompiledPlan:
    """Compiled plan for *(low, variant, engine options)*, cached.

    *low* must be a skeleton view.  *planes* picks the bit-plane
    emitter (:mod:`repro.skeleton.codegen.planes`) over the scalar one.
    *variant* is duck-typed: anything with ``discards_void_stops`` and
    a stable ``str()`` works (the layering rules keep ``repro.lid`` out
    of this module).  *disk_cache* is an optional
    :class:`repro.exec.cache.ResultCache`; the generated source text
    (not the code object) is what persists.
    """
    key = _plan_key(low, variant, planes=planes, fixpoint=fixpoint,
                   detect_ambiguity=detect_ambiguity,
                   metrics_on=metrics_on, events_on=events_on)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _PLAN_CACHE.move_to_end(key)
        STATS.plan_hits += 1
        return plan

    source: Optional[str] = None
    from_disk = False
    cache_key = None
    if disk_cache is not None:
        cache_key = disk_cache.key(CODEGEN_SCHEMA, *key)
        hit = disk_cache.get(cache_key)
        if isinstance(hit, str):
            source = hit
            from_disk = True
    if source is None:
        if planes:
            # Imported on first use: a process that never batches never
            # compiles the plane emitter's module.
            from .planes import generate_plane_source as emitter
        else:
            emitter = generate_source
        source = emitter(
            low,
            is_casu=bool(variant.discards_void_stops),
            fixpoint=fixpoint,
            detect_ambiguity=detect_ambiguity,
            metrics_on=metrics_on,
            events_on=events_on,
        )
    cycle, run_cycles = _compile(source, low.fingerprint[:12])
    if from_disk:
        STATS.disk_hits += 1
    else:
        STATS.compiles += 1
        if disk_cache is not None:
            disk_cache.put(cache_key, source)
    plan = CompiledPlan(key=key, source=source, cycle=cycle,
                        run_cycles=run_cycles)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > PLAN_CACHE_SIZE:
        _PLAN_CACHE.popitem(last=False)
        STATS.evictions += 1
    return plan


# -- the simulator --------------------------------------------------------


class CodegenSkeletonSim(SkeletonSim):
    """A :class:`SkeletonSim` whose ``step`` is compiled, not interpreted.

    Construction runs the normal scalar ``_build``/``reset`` (state
    layout, script binding and every accessor are inherited — shared
    code, not a re-implementation), then binds the compiled plan for
    this topology/variant/option combination.  ``run()``,
    ``metrics_snapshot()`` and ``reset()`` come from the base class;
    ``external_step()`` drives the inherited scalar internals (the
    exhaustive liveness explorer owns the environment there, a path
    that does not benefit from specialization).

    ``detect_ambiguity`` and the telemetry flags are baked into the
    plan at construction; mutating them afterwards has no effect on
    :meth:`step` (the scalar engine re-reads them each cycle — do not
    rely on that either).

    *compile_cache* (optional): a :class:`repro.exec.cache.ResultCache`
    persisting generated source across processes.  *variant* defaults
    to the package default when ``None`` (resolved by the base class).
    """

    def __init__(
        self,
        graph,
        variant=None,
        fixpoint: str = "least",
        source_patterns=None,
        sink_patterns=None,
        detect_ambiguity: bool = True,
        telemetry=None,
        compile_cache=None,
    ):
        kwargs = dict(
            fixpoint=fixpoint,
            source_patterns=source_patterns,
            sink_patterns=sink_patterns,
            detect_ambiguity=detect_ambiguity,
            telemetry=telemetry,
        )
        if variant is not None:
            kwargs["variant"] = variant
        super().__init__(graph, **kwargs)
        if not self.lowered.single_clock:
            from ...errors import StructuralError

            raise StructuralError(
                f"{self.lowered.name}: the codegen engine models "
                f"single-clock systems only (capability flags: "
                f"single_clock={self.lowered.single_clock}, "
                f"has_bridges={self.lowered.has_bridges}); use the "
                f"scalar or bitsim engine for GALS workloads")
        self._plan = plan_for(
            self.lowered,
            self.variant,
            fixpoint=self.fixpoint,
            detect_ambiguity=self.detect_ambiguity,
            metrics_on=self._metrics_on,
            events_on=self._events_on,
            disk_cache=compile_cache,
        )

    @property
    def plan_source(self) -> str:
        """The generated Python source backing this simulator."""
        return self._plan.source

    def step(self) -> Tuple[Tuple[bool, ...], Tuple[bool, ...]]:
        """Advance one cycle via the compiled plan."""
        return self._plan.cycle(self)

    def run_cycles(self, cycles: int) -> None:
        """Advance *cycles* cycles with state held in locals throughout.

        Observably identical to calling :meth:`step` *cycles* times —
        the batched entry point only skips the per-cycle state
        load/writeback, which no outside observer can see between
        cycles of an uninterrupted run.
        """
        self._plan.run_cycles(self, cycles)
