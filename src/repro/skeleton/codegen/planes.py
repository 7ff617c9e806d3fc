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

from typing import Dict, List, Optional, Tuple

from ...ir import (
    RS_BRIDGE,
    RS_FULL,
    RS_HALF,
    RS_HALF_REG,
    SHELL,
    SRC,
    LoweredSystem,
)

__all__ = ["generate_plane_source"]


def _tuple_expr(items: List[str]) -> str:
    if not items:
        return "()"
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


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


def _unpack_line(names: List[str], source: str) -> str:
    """``a, b, = source`` (a one-element target list keeps its comma)."""
    return ", ".join(names) + ", = " + source


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
    hops = low.hops
    n_hops = len(hops)
    n_shells = len(low.shell_names)
    rs_kinds = [r.tag for r in low.relays]
    shell_in = [list(x) for x in low.shell_in_hops]
    shell_out_pairs = [
        [(hop_out, hops[hop_out].producer_reg) for hop_out in outs]
        for outs in low.shell_out_hops
    ]
    rs_in = list(low.relay_in_hop)
    rs_out = list(low.relay_out_hop)
    sink_in = list(low.sink_in_hop)
    sink_fixed = [(k, h) for k, h in enumerate(sink_in) if h is not None]
    half_inout = [(i, rs_in[i], rs_out[i])
                  for i, kind in enumerate(rs_kinds) if kind == RS_HALF]
    hop_internal = [h.consumer_kind in (SHELL, RS_HALF) for h in hops]
    ambiguity = detect_ambiguity and low.may_be_ambiguous
    single_pass = not low.may_be_ambiguous
    guard = n_hops + n_shells + 2

    # Clock gating: one word per domain (all planes or none); a domain
    # that ticks on every base cycle needs no gate at all.
    node_dom = low.node_domain
    gated = [not low.single_clock and not all(d.schedule)
             for d in low.domains]

    def gate(dom: int) -> Optional[str]:
        return f"e{dom}" if gated[dom] else None

    shell_gate = [gate(node_dom[i]) for i in low.shell_ids]
    src_gate = [gate(node_dom[i]) for i in low.source_ids]
    sink_gate = [gate(node_dom[i]) for i in low.sink_ids]
    rs_gate = [gate(node_dom[low.edges[r.edge].src]) for r in low.relays]

    def valid(h: int) -> str:
        hop = hops[h]
        if hop.producer_kind == SRC:
            return f"pv{hop.producer_id}"
        if hop.producer_kind == SHELL:
            return f"r{hop.producer_reg}"
        if hop.producer_kind == RS_BRIDGE:
            return f"g{hop.producer_id}_0"
        return f"m{hop.producer_id}"

    fixed: Dict[int, str] = {}
    for i, kind in enumerate(rs_kinds):
        if kind == RS_FULL:
            fixed[rs_in[i]] = f"q{i}"
        elif kind == RS_HALF_REG:
            fixed[rs_in[i]] = f"m{i}"
    for k, h in sink_fixed:
        fixed[h] = f"sp{k}"
    for b in low.bridges:
        fixed[low.bridge_in_hop[b.index]] = f"g{b.index}_{b.depth - 1}"
    settled = [h for h in range(n_hops) if h not in fixed]

    def stop(sv: str, h: int) -> str:
        return fixed.get(h) or f"{sv}{h}"

    def fire_expr(i: int, sv: str) -> str:
        terms = [shell_gate[i]] if shell_gate[i] else []
        terms += [valid(h) for h in shell_in[i]]
        if not terms:
            terms.append("_M")
        for hop_out, reg in shell_out_pairs[i]:
            if is_casu:
                terms.append(f"~({stop(sv, hop_out)} & r{reg})")
            else:
                terms.append(f"~{stop(sv, hop_out)}")
        return " & ".join(terms)

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

    def emit_bridge_step(ind: str, b, up: str, down: str) -> None:
        """Saturating thermometer step: planes in *up* gain a token,
        planes in *down* lose one (the two are disjoint)."""
        depth = b.depth
        names = [f"g{b.index}_{k}" for k in range(depth)]
        exprs = []
        for k in range(depth):
            keep = (f"(~{down} | {names[k + 1]})" if k + 1 < depth
                    else f"~{down}")
            rise = up if k == 0 else f"({up} & {names[k - 1]})"
            exprs.append(f"({names[k]} & {keep}) | {rise}")
        if depth == 1:
            emit(f"{ind}{names[0]} = {exprs[0]}")
        else:
            emit(f"{ind}{', '.join(names)} = {', '.join(exprs)}")

    def emit_settle(sv: str, mode: str) -> None:
        if single_pass:
            for i in range(n_shells):
                emit(f"f{i} = {fire_expr(i, sv)}")
                if not shell_in[i]:
                    continue
                if is_casu:
                    emit(f"_st = f{i} ^ _M")
                    for h in shell_in[i]:
                        emit(f"{sv}{h} = _st & {valid(h)}")
                else:
                    emit(" = ".join(f"{sv}{h}" for h in shell_in[i])
                         + f" = f{i} ^ _M")
            return
        if settled:
            emit(" = ".join(f"{sv}{h}" for h in settled)
                 + (" = _M" if mode == "greatest" else " = 0"))
        if not half_inout and not any(shell_in):
            return  # nothing to settle: every stop is fixed
        emit("_ch = True")
        emit(f"_gd = {guard}")
        emit("while _ch and _gd > 0:")
        emit("    _ch = False")
        emit("    _gd -= 1")
        for rs_id, hop_in, hop_out in half_inout:
            if is_casu:
                emit(f"    _n = {stop(sv, hop_out)} & m{rs_id}")
            else:
                emit(f"    _n = {stop(sv, hop_out)}")
            emit(f"    if {sv}{hop_in} != _n:")
            emit(f"        {sv}{hop_in} = _n")
            emit("        _ch = True")
        for i in range(n_shells):
            if not shell_in[i]:
                continue  # a stall with no inputs presses on nothing
            emit(f"    _st = ({fire_expr(i, sv)}) ^ _M")
            for h in shell_in[i]:
                emit(f"    _n = _st & {valid(h)}" if is_casu
                     else "    _n = _st")
                emit(f"    if {sv}{h} != _n:")
                emit(f"        {sv}{h} = _n")
                emit("        _ch = True")

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

    emit(f"# settle the stop network ({fixpoint} fixpoint, "
         + ("one pass)" if single_pass else "Gauss-Seidel)"))
    emit_settle("s", fixpoint)
    if not single_pass:
        for i in range(n_shells):
            emit(f"f{i} = {fire_expr(i, 's')}")
    if ambiguity:
        alt = "greatest" if fixpoint == "least" else "least"
        emit(f"# ambiguity probe: settle again under the {alt} fixpoint")
        emit_settle("t", alt)
        emit("_df = " + " | ".join(f"(t{h} ^ s{h})" for h in settled))
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

    emit("# edge: shell out-registers and relay stations")
    commits: List[Tuple[Optional[str], List[str]]] = []
    for i, pairs in enumerate(shell_out_pairs):
        g = shell_gate[i]
        for hop_out, reg in pairs:
            held = stop("s", hop_out)
            if g:
                held = f"({held} | (_M ^ {g}))"
            emit(f"nr{reg} = f{i} | (r{reg} & {held})")
            commits.append((None, [f"r{reg} = nr{reg}"]))
    for i, kind in enumerate(rs_kinds):
        g = rs_gate[i]
        ind = "    " if g else ""
        if g:
            emit(f"if {g}:")
        v_in, s_out = valid(rs_in[i]), stop("s", rs_out[i])
        if kind == RS_FULL:
            emit(f"{ind}_nc = m{i} & {s_out}")
            emit(f"{ind}_ac = {v_in} & ~q{i}")
            emit(f"{ind}_qd = a{i} | _ac")
            emit(f"{ind}nm{i} = _qd | _nc")
            emit(f"{ind}na{i} = _nc & _qd")
            emit(f"{ind}nq{i} = _nc & (q{i} | (_ac & ~a{i}))")
            commits.append((g, [f"m{i} = nm{i}", f"a{i} = na{i}",
                                f"q{i} = nq{i}"]))
        else:  # half variants share the single-register update
            emit(f"{ind}nm{i} = ({v_in} & ~{stop('s', rs_in[i])})"
                 f" | (m{i} & {s_out})")
            commits.append((g, [f"m{i} = nm{i}"]))

    if low.bridges:
        emit("# bridges: write in the source domain, read in the "
             "destination domain")
        for b in low.bridges:
            wg, rg = gate(b.src_domain), gate(b.dst_domain)
            hop_in = low.bridge_in_hop[b.index]
            hop_out = low.bridge_out_hop[b.index]
            emit(f"_wr = {valid(hop_in)} & ~g{b.index}_{b.depth - 1}"
                 + (f" & {wg}" if wg else ""))
            emit(f"_rd = g{b.index}_0 & ~{stop('s', hop_out)}"
                 + (f" & {rg}" if rg else ""))
            emit("if _wr != _rd:")
            emit("    _u = _wr & ~_rd")
            emit("    _dn = _rd & ~_wr")
            emit_bridge_step("    ", b, "_u", "_dn")
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
            emit_bridge_step("                ", b, "_u", "_dn")

    emit("# commit the edge")
    for g, lines in commits:
        if g:
            emit(f"if {g}:")
        for line in lines:
            emit(("    " if g else "") + line)

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
