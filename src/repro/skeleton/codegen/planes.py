"""The bit-plane emitter: one topology's step over plane words.

Bit *p* of every int is instance *p*.  :func:`generate_plane_source`
writes the step :class:`~repro.skeleton.bitsim.BitplaneSkeletonSim`
runs; :func:`repro.skeleton.codegen.plan_for` compiles and caches it.
It lives in its own module, imported on first use, so a process that
only runs the scalar reference never loads it: without cached bytecode
every process compiles the modules it imports, and the emitter has the
largest compile peak in the package.
"""

from __future__ import annotations

from typing import Dict, List

from ...ir import RS_HALF, SHELL, LoweredSystem
from .equations import Equations, _tuple_expr, _unpack_line

__all__ = ["generate_plane_source"]


#: The tail of a vertical-counter add: a carry out of the two low
#: slices (kept in locals) ripples through the slice list.
_CARRY = [
    "",
    "",
    "def _carry(slices, word):",
    "    i = 2",
    "    while word:",
    "        if i == len(slices):",
    "            slices.append(word)",
    "            return",
    "        low = slices[i]",
    "        slices[i] = low ^ word",
    "        word &= low",
    "        i += 1",
    "",
]


#: The epilogue of a one-plane plan: a counter's plain-int delta,
#: added into plane 0 of its slice list with a ripple carry.
_RIPPLE = [
    "",
    "",
    "def _ripple(slices, delta):",
    "    i = 0",
    "    while delta:",
    "        if i == len(slices):",
    "            slices.append(0)",
    "        delta += slices[i]",
    "        slices[i] = delta & 1",
    "        delta >>= 1",
    "        i += 1",
    "",
]


#: A sink stop word packed per cycle, for scripts whose lcm span is
#: too long to expand: one (script, planes) group per distinct script.
_PACK = [
    "",
    "",
    "def _pack(groups, cycle):",
    "    word = 0",
    "    for script, planes in groups:",
    "        if script[cycle % len(script)]:",
    "            word |= planes",
    "    return word",
    "",
]


def generate_plane_source(
    low: LoweredSystem,
    *,
    is_casu: bool,
    one_plane: bool,
    fixpoint: str,
    detect_ambiguity: bool,
    metrics_on: bool,
    events_on: bool,
) -> str:
    """Emit the specialized bit-plane module source for *low*.

    *low* must be the skeleton view (queued shells desugared).  The
    emitted ``run_cycles(sim, n)`` advances a
    :class:`~repro.skeleton.bitsim.BitplaneSkeletonSim` by *n* cycles
    with the observable effects of the reference per-plane step
    (registers, thermometer-coded bridges, vertical counters,
    histories, ambiguity cycles and aggregate events), and returns the
    last cycle's ``(fires, accepts)`` plane words; ``cycle(sim)`` is
    ``run_cycles(sim, 1)``.  Every signal is a local int whose bit *p*
    is plane *p*:

    * a hop's valid is its producer's register (shell out-register
      ``r``, relay main ``m``, bridge non-empty word ``g<b>_0``) or the
      presented source word ``pv``; a stop fixed before the settle is
      the register that drives it (full station ``q``, registered half
      station ``m``, bridge full word, sink ``sp``); the other stops
      (``s``; ``t`` under the ambiguity probe) are settled in one pass
      when no combinational stop cycle can exist, else by the
      Gauss-Seidel sweep with the reference guard;
    * register updates go to ``n*`` temporaries and commit together;
      bridges move in place, then the runtime pokes in registration
      order;
    * counters take one of two forms, fixed by *one_plane* and part of
      the plan key.  Any width: a vertical counter keeps its two low
      slices in locals and ripples a carry past them into its slice
      list.  One plane (*one_plane*): every word is 0 or 1, so each
      counter is a plain int delta that starts at zero, takes sums of
      words in the loop, and is rippled into plane 0 of the slice list
      once per call; neither entry point reads a counter's value.

    GALS graphs unpack the simulator's per-phase table (one word per
    clock domain, all planes or none) at ``cycle % hyperperiod``;
    elements of a domain that ticks every cycle are not gated.
    """
    eq = Equations(low, is_casu=is_casu)
    hops = eq.hops
    n_hops = eq.n_hops
    n_shells = eq.n_shells
    rs_kinds = eq.rs_kinds
    sink_in = list(low.sink_in_hop)
    sink_fixed = eq.sink_fixed
    hop_internal = [h.consumer_kind in (SHELL, RS_HALF) for h in hops]
    ambiguity = detect_ambiguity and low.may_be_ambiguous
    gated = eq.gated
    src_gate, sink_gate = eq.src_gate, eq.sink_gate
    valid, stop = eq.valid, eq.stop

    # -- counters: vertical (two low slices in locals, the rest listed)
    # or, for one plane, plain int deltas rippled in by the epilogue --
    counters: List[str] = []
    counter_ids: Dict[str, int] = {}

    def counter(ref: str) -> int:
        if ref not in counter_ids:
            counter_ids[ref] = len(counters)
            counters.append(ref)
        return counter_ids[ref]

    body: List[str] = []
    emit = body.append

    def emit_add(ind: str, ref: str, word: str) -> None:
        """Inline add of *word* to a counter (*word* is read twice)."""
        c = counter(ref)
        if one_plane:
            emit(f"{ind}c{c} += {word}")
            return
        lo, hi = f"c{c}a", f"c{c}b"
        for line in (
                f"_c = {lo} & {word}",
                f"{lo} ^= {word}",
                "if _c:",
                f"    _d = {hi} & _c",
                f"    {hi} ^= _c",
                "    if _d:",
                f"        _carry(_S{c}, _d)"):
            emit(ind + line)

    def emit_guarded_add(ind: str, ref: str, word: str) -> None:
        if one_plane:
            emit_add(ind, ref, word)
            return
        emit(f"{ind}if {word}:")
        emit_add(ind + "    ", ref, word)

    # -- body: one cycle over locals only --------------------------------
    if any(gated):
        emit(_unpack_line(
            [f"e{d}" if on else "_e" for d, on in enumerate(gated)],
            "_ph[cycle_no % _hp]"))
    for j, g in enumerate(src_gate):
        ind = ""
        if g:
            emit(f"if {g}:")
            ind = "    "
        emit(f"{ind}pv{j} = _sw{j}")
        emit(f"{ind}for _p, _pat in _sv{j}:")
        emit(f"{ind}    if _pat[(tk{j} - _sh{j}[_p]) % len(_pat)]:")
        emit(f"{ind}        pv{j} |= 1 << _p")
        if g:
            emit("else:")
            emit(f"    pv{j} = 0  # idle domain: void, phase frozen")
    for k, _h in sink_fixed:
        emit(f"sp{k} = (_ks{k}[cycle_no % _kn{k}] if _ks{k} is not None "
             f"else _pack(_kg{k}, cycle_no))")
        if sink_gate[k]:
            emit(f"sp{k} |= _M ^ {sink_gate[k]}  # an idle sink stops")

    eq.emit_stops(emit, fixpoint, ambiguity)
    if ambiguity:
        emit("if _df:")
        if one_plane:
            emit("    _amb[0].append(cycle_no)")
        else:
            emit("    for _p in range(_B):")
            emit("        if (_df >> _p) & 1:")
            emit("            _amb[_p].append(cycle_no)")
        if events_on:
            emit("    _ev.emit('fixpoint', 'ambiguous', cycle_no, "
                 "instances=[_p for _p in range(_B) if (_df >> _p) & 1])")

    emit("# paper-claim counters")
    # A Casu shell stalls only valid inputs, so its in-hop stops never
    # land on voids; every other stop may.
    never_void = [is_casu and hops[h].consumer_kind == SHELL
                  for h in range(n_hops)]
    groups = (
        ([h for h in range(n_hops) if never_void[h]], False, False),
        ([h for h in range(n_hops)
          if not never_void[h] and not hop_internal[h]], True, False),
        ([h for h in range(n_hops)
          if not never_void[h] and hop_internal[h]], True, True),
    )
    if one_plane:
        # Every word is 0 or 1, so a sum of words is their count.
        def on_void(h: int) -> str:
            return f"({stop('s', h)} & ~{valid(h)})"

        if n_hops:
            emit_add("", "sim.stop_assertions",
                     " + ".join(stop("s", h) for h in range(n_hops)))
        external = [on_void(h) for h in groups[1][0]]
        if groups[2][0]:
            emit("_vd = " + " + ".join(on_void(h) for h in groups[2][0]))
            emit_add("", "sim.internal_stops_on_voids", "_vd")
            external.append("_vd")
        if external:
            emit_add("", "sim.stops_on_voids", " + ".join(external))
    else:
        for members, voids, internal in groups:
            if not members:
                continue
            if voids:
                pairs = [f"({stop('s', h)}, {valid(h)})" for h in members]
                emit(f"for _w, _v in {_tuple_expr(pairs)}:")
            else:
                emit("for _w in "
                     f"{_tuple_expr([stop('s', h) for h in members])}:")
            emit("    if _w:")
            emit_add("        ", "sim.stop_assertions", "_w")
            if voids:
                emit("        _vd = _w & ~_v")
                emit("        if _vd:")
                emit_add("            ", "sim.stops_on_voids", "_vd")
                if internal:
                    emit_add("            ",
                             "sim.internal_stops_on_voids", "_vd")
    if metrics_on:
        for h in range(n_hops):
            emit_guarded_add("", f"sim.hop_stall_cycles[{h}]", stop("s", h))
    for k, h in enumerate(sink_in):
        emit(f"ac{k} = {valid(h)} & ~{stop('s', h)}" if h is not None
             else f"ac{k} = 0")
    fire_words = [f"f{i}" for i in range(n_shells)]
    accept_words = [f"ac{k}" for k in range(len(sink_in))]
    if events_on:
        # Aggregate (batch-wide) per-cycle counts; per-instance event
        # streams come from the scalar engine.
        popcount = " + ".join(f"{w}.bit_count()" for w in fire_words)
        emit(f"_ev.emit('token', 'fire', cycle_no, count={popcount or 0}, "
             "instances=_B)")
        if accept_words:
            emit("_n = " + " + ".join(f"{w}.bit_count()"
                                      for w in accept_words))
            emit("if _n:")
            emit("    _ev.emit('token', 'accept', cycle_no, count=_n)")
        if n_hops:
            emit("_n = " + " + ".join(f"{stop('s', h)}.bit_count()"
                                      for h in range(n_hops)))
            emit("if _n:")
            emit("    _ev.emit('stall', 'assert', cycle_no, count=_n)")

    if low.source_out_hops:
        emit("# source phases: a held presented token freezes its phase")
    for j, outs in enumerate(low.source_out_hops):
        ind = ""
        if src_gate[j]:
            emit(f"if {src_gate[j]}:")
            ind = "    "
        emit(f"{ind}if not _ss{j}:")
        emit(f"{ind}    tk{j} += 1")
        if outs:
            held = " | ".join(stop("s", h) for h in outs)
            emit(f"{ind}    _h = ({held}) & pv{j}")
            emit(f"{ind}    while _h:")
            emit(f"{ind}        _low = _h & -_h")
            emit(f"{ind}        _sh{j}[_low.bit_length() - 1] += 1")
            emit(f"{ind}        _h ^= _low")
    for i, word in enumerate(fire_words):
        emit_guarded_add("", f"sim.shell_fired[{i}]", word)
    for k, h in enumerate(sink_in):
        if h is not None:
            emit_guarded_add("", f"sim.sink_accepted[{k}]", f"ac{k}")

    commits = eq.emit_edge(emit)
    if low.bridges:
        eq.emit_bridges(emit)
        emit("for _pb, _pl, _plo, _phi, _pdl in _pk:")
        emit("    if _plo <= cycle_no < _phi:")
        emit("        if _pdl > 0:")
        emit("            _u, _dn = _pl, 0")
        emit("        else:")
        emit("            _u, _dn = 0, _pl")
        for b in low.bridges:
            lead = "if" if b.index == 0 else "elif"
            emit(f"        {lead} _pb == {b.index}:")
            emit(f"            for _k in range(min(abs(_pdl), {b.depth})):")
            eq.emit_bridge_step(emit, "                ", b, "_u", "_dn")

    eq.emit_commit(emit, commits)

    if metrics_on:
        for i in range(len(rs_kinds)):
            occupancy = f"sim.rs_occupancy_counts[{i}]"
            emit(f"_w = ~(m{i} | a{i}) & _M")
            emit_guarded_add("", f"{occupancy}[0]", "_w")
            emit(f"_w = m{i} ^ a{i}")
            emit_guarded_add("", f"{occupancy}[1]", "_w")
            emit(f"_w = m{i} & a{i}")
            emit_guarded_add("", f"{occupancy}[2]", "_w")
        for b in low.bridges:
            occupancy = f"sim.bridge_occupancy_counts[{b.index}]"
            below = "_M"
            for level in range(b.depth):
                emit(f"_w = {below} & ~g{b.index}_{level}")
                emit_guarded_add("", f"{occupancy}[{level}]", "_w")
                below = f"g{b.index}_{level}"
            emit_guarded_add("", f"{occupancy}[{b.depth}]", below)

    emit(f"_fires = [{', '.join(fire_words)}]")
    emit(f"_accepts = [{', '.join(accept_words)}]")
    emit("_fh.append(_fires)")
    emit("_ah.append(_accepts)")
    emit("cycle_no += 1")

    # -- prologue / epilogue: state between the sim and locals -----------
    n_regs = len(low.shell_regs)
    n_rs = len(rs_kinds)
    pro: List[str] = ["cycle_no = sim.cycle", "_M = sim._mask"]
    if (ambiguity and not one_plane) or events_on:
        pro.append("_B = sim.batch")
    if n_regs:
        pro.append(_unpack_line([f"r{g}" for g in range(n_regs)],
                                "sim.shell_reg"))
    if n_rs:
        for prefix, attr in (("m", "rs_main"), ("a", "rs_aux"),
                             ("q", "rs_stop_reg")):
            pro.append(_unpack_line([f"{prefix}{i}" for i in range(n_rs)],
                                    f"sim.{attr}"))
    for b in low.bridges:
        pro.append(_unpack_line([f"g{b.index}_{k}" for k in range(b.depth)],
                                f"sim.bridge_ge[{b.index}]"))
    if low.bridges:
        pro.append("_pk = [_x for _x in sim._bridge_pokes "
                   "if _x[3] > cycle_no and _x[2] < cycle_no + n]")
    if any(gated):
        pro.append("_ph = sim._phases")
        pro.append("_hp = len(_ph)")
    for j in range(len(low.source_names)):
        pro.append(f"_sw{j}, _sv{j} = sim._src_words[{j}]")
        pro.append(f"_ss{j} = sim._src_static[{j}]")
        pro.append(f"tk{j} = sim._src_ticks[{j}]")
        pro.append(f"_sh{j} = sim._src_holds[{j}]")
    for k, _h in sink_fixed:
        pro.append(f"_ks{k} = sim._sink_sched[{k}]")
        pro.append(f"_kn{k} = len(_ks{k}) if _ks{k} is not None else 0")
        pro.append(f"_kg{k} = sim._sink_groups[{k}]")
    if one_plane:
        if counters:
            pro.append(" = ".join(f"c{c}" for c in range(len(counters)))
                       + " = 0")
    else:
        for c, ref in enumerate(counters):
            pro.append(f"_S{c} = {ref}.slices")
            pro.append(f"c{c}a, c{c}b = _S{c}[0], _S{c}[1]")
    if ambiguity:
        pro.append("_amb = sim.ambiguous_cycles")
    if events_on:
        pro.append("_ev = sim.telemetry.events")
    pro.append("_fh = sim._fire_history")
    pro.append("_ah = sim._accept_history")
    pro.append("_fires = _accepts = None")

    epi: List[str] = [
        f"sim.shell_reg = [{', '.join(f'r{g}' for g in range(n_regs))}]",
        f"sim.rs_main = [{', '.join(f'm{i}' for i in range(n_rs))}]",
        f"sim.rs_aux = [{', '.join(f'a{i}' for i in range(n_rs))}]",
        f"sim.rs_stop_reg = [{', '.join(f'q{i}' for i in range(n_rs))}]",
    ]
    if low.bridges:
        epi.append("sim.bridge_ge = [" + ", ".join(
            "[" + ", ".join(f"g{b.index}_{k}" for k in range(b.depth)) + "]"
            for b in low.bridges) + "]")
    for j in range(len(low.source_names)):
        epi.append(f"sim._src_ticks[{j}] = tk{j}")
    for c, ref in enumerate(counters):
        if one_plane:
            epi.append(f"if c{c}:")
            epi.append(f"    _ripple({ref}.slices, c{c})")
        else:
            epi.append(f"_S{c}[0] = c{c}a")
            epi.append(f"_S{c}[1] = c{c}b")
    epi.append("sim.cycle = cycle_no")
    epi.append("return _fires, _accepts")

    out: List[str] = [
        '"""Generated by repro.skeleton.codegen (bit planes) — do not '
        'edit.',
        "",
        f"topology: {low.name}  fingerprint: {low.fingerprint}",
        f"variant: {'casu' if is_casu else 'carloni'}  "
        f"fixpoint: {fixpoint}  ambiguity: {ambiguity}  "
        f"metrics: {metrics_on}  events: {events_on}  "
        f"counters: {'plain' if one_plane else 'vertical'}",
        '"""',
        "",
        "",
        "def run_cycles(sim, n):",
    ]
    out += ["    " + line for line in pro]
    out.append("    for _ in range(n):")
    out += ["        " + line for line in body]
    out += ["    " + line for line in epi]
    out += ["", "", "def cycle(sim):", "    return run_cycles(sim, 1)", ""]
    if counters:
        out += _RIPPLE if one_plane else _CARRY
    if sink_fixed:
        out += _PACK
    return "\n".join(out)
