"""One topology's valid/stop equations, written as Python source.

Both compiled forms of the skeleton step are written from the one
:class:`Equations` object here, so they share one copy of the
semantics:

* the bit-plane plans of :mod:`repro.skeleton.codegen.planes`, where
  bit *p* of every int is plane *p*;
* the one-cycle transition of :func:`generate_transition_source`,
  which the exhaustive liveness explorer walks, where every int is 0
  or 1.

Every signal is a local int: a hop's valid is its producer's register
(shell out-register ``r``, relay main ``m``, bridge non-empty word
``g<b>_0``) or the presented source word ``pv``; a stop fixed before
the settle is the register that drives it (full station ``q``,
registered half station ``m``, bridge full word, sink ``sp``); the
other stops (``s``, and ``t`` under the ambiguity probe) are settled.
``_M`` is the all-planes mask and ``e<d>`` the tick word of a gated
clock domain.  This module is small on purpose: the liveness path
imports it without the plane emitter.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ...ir import (
    RS_BRIDGE,
    RS_FULL,
    RS_HALF,
    RS_HALF_REG,
    SHELL,
    SRC,
    LoweredSystem,
)

__all__ = ["Equations", "generate_transition_source"]

_Emit = Callable[[str], None]
#: A register commit: the gate (None: every cycle) and its
#: (register, temporary) pairs.
_Commit = Tuple[Optional[str], List[Tuple[str, str]]]


def _tuple_expr(items: List[str]) -> str:
    if not items:
        return "()"
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


def _unpack_line(names: List[str], source: str) -> str:
    """``a, b, = source`` (a one-element target list keeps its comma)."""
    return ", ".join(names) + ", = " + source


class Equations:
    """The expression and statement writers of one skeleton view.

    *low* must be the skeleton view (queued shells desugared).  The
    writers replicate the scalar reference step
    (:class:`~repro.skeleton.sim.SkeletonSim`) operation for operation:
    the same fixed-stop partition, settle order and guard counter, and
    the same register-update equations.
    """

    def __init__(self, low: LoweredSystem, *, is_casu: bool) -> None:
        self.low = low
        self.is_casu = is_casu
        hops = self.hops = low.hops
        self.n_hops = len(hops)
        self.n_shells = len(low.shell_names)
        self.rs_kinds = [r.tag for r in low.relays]
        self.shell_in = [list(x) for x in low.shell_in_hops]
        self.shell_out_pairs = [
            [(hop_out, hops[hop_out].producer_reg) for hop_out in outs]
            for outs in low.shell_out_hops
        ]
        self.rs_in = list(low.relay_in_hop)
        self.rs_out = list(low.relay_out_hop)
        self.sink_fixed = [(k, h) for k, h in enumerate(low.sink_in_hop)
                           if h is not None]
        self.half_inout = [(i, self.rs_in[i], self.rs_out[i])
                           for i, kind in enumerate(self.rs_kinds)
                           if kind == RS_HALF]
        # No combinational stop cycle: one pass in settle order.
        self.single_pass = not low.may_be_ambiguous
        self.guard = self.n_hops + self.n_shells + 2

        # Clock gating: one word per domain (all planes or none); a
        # domain that ticks on every base cycle needs no gate at all.
        node_dom = low.node_domain
        self.gated = [not low.single_clock and not all(d.schedule)
                      for d in low.domains]
        self.shell_gate = [self.gate(node_dom[i]) for i in low.shell_ids]
        self.src_gate = [self.gate(node_dom[i]) for i in low.source_ids]
        self.sink_gate = [self.gate(node_dom[i]) for i in low.sink_ids]
        self.rs_gate = [self.gate(node_dom[low.edges[r.edge].src])
                        for r in low.relays]

        fixed: Dict[int, str] = {}
        for i, kind in enumerate(self.rs_kinds):
            if kind == RS_FULL:
                fixed[self.rs_in[i]] = f"q{i}"
            elif kind == RS_HALF_REG:
                fixed[self.rs_in[i]] = f"m{i}"
        for k, h in self.sink_fixed:
            fixed[h] = f"sp{k}"
        for b in low.bridges:
            fixed[low.bridge_in_hop[b.index]] = f"g{b.index}_{b.depth - 1}"
        self.fixed = fixed
        self.settled = [h for h in range(self.n_hops) if h not in fixed]

    # -- expressions -----------------------------------------------------

    def gate(self, dom: int) -> Optional[str]:
        return f"e{dom}" if self.gated[dom] else None

    def valid(self, h: int) -> str:
        hop = self.hops[h]
        if hop.producer_kind == SRC:
            return f"pv{hop.producer_id}"
        if hop.producer_kind == SHELL:
            return f"r{hop.producer_reg}"
        if hop.producer_kind == RS_BRIDGE:
            return f"g{hop.producer_id}_0"
        return f"m{hop.producer_id}"

    def stop(self, sv: str, h: int) -> str:
        return self.fixed.get(h) or f"{sv}{h}"

    def fire_expr(self, i: int, sv: str) -> str:
        gate = self.shell_gate[i]
        terms = [gate] if gate else []
        terms += [self.valid(h) for h in self.shell_in[i]]
        if not terms:
            terms.append("_M")
        for hop_out, reg in self.shell_out_pairs[i]:
            if self.is_casu:
                terms.append(f"~({self.stop(sv, hop_out)} & r{reg})")
            else:
                terms.append(f"~{self.stop(sv, hop_out)}")
        return " & ".join(terms)

    # -- statements ------------------------------------------------------

    def emit_settle(self, emit: _Emit, sv: str, mode: str) -> None:
        """Settle the non-fixed stops into ``<sv><hop>`` locals; one pass
        (which also writes the fire words) or the Gauss-Seidel sweep
        from the *mode* fixpoint's starting point."""
        is_casu, valid = self.is_casu, self.valid
        shell_in, fire_expr = self.shell_in, self.fire_expr
        if self.single_pass:
            for i in range(self.n_shells):
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
        if self.settled:
            emit(" = ".join(f"{sv}{h}" for h in self.settled)
                 + (" = _M" if mode == "greatest" else " = 0"))
        if not self.half_inout and not any(shell_in):
            return  # nothing to settle: every stop is fixed
        emit("_ch = True")
        emit(f"_gd = {self.guard}")
        emit("while _ch and _gd > 0:")
        emit("    _ch = False")
        emit("    _gd -= 1")
        for rs_id, hop_in, hop_out in self.half_inout:
            if is_casu:
                emit(f"    _n = {self.stop(sv, hop_out)} & m{rs_id}")
            else:
                emit(f"    _n = {self.stop(sv, hop_out)}")
            emit(f"    if {sv}{hop_in} != _n:")
            emit(f"        {sv}{hop_in} = _n")
            emit("        _ch = True")
        for i in range(self.n_shells):
            if not shell_in[i]:
                continue  # a stall with no inputs presses on nothing
            emit(f"    _st = ({fire_expr(i, sv)}) ^ _M")
            for h in shell_in[i]:
                emit(f"    _n = _st & {valid(h)}" if is_casu
                     else "    _n = _st")
                emit(f"    if {sv}{h} != _n:")
                emit(f"        {sv}{h} = _n")
                emit("        _ch = True")

    def emit_stops(self, emit: _Emit, fixpoint: str, probe: bool) -> None:
        """The stop network settled under *fixpoint* into ``s`` and the
        fire words ``f``; with *probe*, settled again under the other
        fixpoint into ``t``, and ``_df`` marks where the two differ."""
        emit(f"# settle the stop network ({fixpoint} fixpoint, "
             + ("one pass)" if self.single_pass else "Gauss-Seidel)"))
        self.emit_settle(emit, "s", fixpoint)
        if not self.single_pass:
            for i in range(self.n_shells):
                emit(f"f{i} = {self.fire_expr(i, 's')}")
        if probe:
            alt = "greatest" if fixpoint == "least" else "least"
            emit(f"# ambiguity probe: settle again under the {alt} fixpoint")
            self.emit_settle(emit, "t", alt)
            emit("_df = " + " | ".join(f"(t{h} ^ s{h})"
                                       for h in self.settled))

    def emit_edge(self, emit: _Emit) -> List[_Commit]:
        """Next shell out-registers and relay stations into ``n*``
        temporaries; returns the commits ``(gate, [(register,
        temporary)])`` that :meth:`emit_commit` writes once the bridges
        have moved."""
        valid, stop = self.valid, self.stop
        emit("# edge: shell out-registers and relay stations")
        commits: List[_Commit] = []
        for i, pairs in enumerate(self.shell_out_pairs):
            g = self.shell_gate[i]
            for hop_out, reg in pairs:
                held = stop("s", hop_out)
                if g:
                    held = f"({held} | (_M ^ {g}))"
                emit(f"nr{reg} = f{i} | (r{reg} & {held})")
                commits.append((None, [(f"r{reg}", f"nr{reg}")]))
        for i, kind in enumerate(self.rs_kinds):
            g = self.rs_gate[i]
            ind = "    " if g else ""
            if g:
                emit(f"if {g}:")
            v_in, s_out = valid(self.rs_in[i]), stop("s", self.rs_out[i])
            if kind == RS_FULL:
                emit(f"{ind}_nc = m{i} & {s_out}")
                emit(f"{ind}_ac = {v_in} & ~q{i}")
                emit(f"{ind}_qd = a{i} | _ac")
                emit(f"{ind}nm{i} = _qd | _nc")
                emit(f"{ind}na{i} = _nc & _qd")
                emit(f"{ind}nq{i} = _nc & (q{i} | (_ac & ~a{i}))")
                commits.append((g, [(f"{x}{i}", f"n{x}{i}")
                                    for x in "maq"]))
            else:  # half variants share the single-register update
                emit(f"{ind}nm{i} = ({v_in} & ~{stop('s', self.rs_in[i])})"
                     f" | (m{i} & {s_out})")
                commits.append((g, [(f"m{i}", f"nm{i}")]))
        return commits

    def emit_bridge_step(self, emit: _Emit, ind: str, b, up: str,
                         down: str) -> None:
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

    def emit_bridges(self, emit: _Emit) -> None:
        """Each bridge moves in place: a write in the source domain, a
        read in the destination domain (runtime pokes are not here)."""
        low = self.low
        emit("# bridges: write in the source domain, read in the "
             "destination domain")
        for b in low.bridges:
            wg, rg = self.gate(b.src_domain), self.gate(b.dst_domain)
            hop_in = low.bridge_in_hop[b.index]
            hop_out = low.bridge_out_hop[b.index]
            emit(f"_wr = {self.valid(hop_in)} & ~g{b.index}_{b.depth - 1}"
                 + (f" & {wg}" if wg else ""))
            emit(f"_rd = g{b.index}_0 & ~{self.stop('s', hop_out)}"
                 + (f" & {rg}" if rg else ""))
            emit("if _wr != _rd:")
            emit("    _u = _wr & ~_rd")
            emit("    _dn = _rd & ~_wr")
            self.emit_bridge_step(emit, "    ", b, "_u", "_dn")

    @staticmethod
    def emit_commit(emit: _Emit, commits: List[_Commit]) -> None:
        emit("# commit the edge")
        for g, pairs in commits:
            if g:
                emit(f"if {g}:")
            for register, temporary in pairs:
                emit(("    " if g else "") + f"{register} = {temporary}")

    def registers(self) -> List[str]:
        """Every register local in transition order: shell
        out-registers, relay mains, auxes and stop registers, then each
        bridge's thermometer bits."""
        n_rs = len(self.rs_kinds)
        names = [f"r{g}" for g in range(len(self.low.shell_regs))]
        for prefix in "maq":
            names += [f"{prefix}{i}" for i in range(n_rs)]
        for b in self.low.bridges:
            names += [f"g{b.index}_{k}" for k in range(b.depth)]
        return names


def generate_transition_source(low: LoweredSystem, *, is_casu: bool) -> str:
    """Emit ``transition(registers, phase, offers, stops)`` for *low*.

    The compiled form of :meth:`~repro.skeleton.sim.SkeletonSim.step_from`
    with its defaults (least fixpoint, ambiguity probe on), over ints
    that are 0 or 1.  *registers* is one flat tuple in
    :meth:`Equations.registers` order, *phase* is ``cycle %
    hyperperiod``, *offers* and *stops* hold one bit per source and
    sink; a port whose clock domain does not tick at *phase* presents
    void or stops, whatever they say.  Returns ``(next registers,
    fires, source stops, ambiguous)``.
    """
    eq = Equations(low, is_casu=is_casu)
    body: List[str] = []
    emit = body.append
    registers = eq.registers()
    emit("_M = 1")
    if registers:
        emit(_unpack_line(registers, "registers"))
    if any(eq.gated):
        emit(_unpack_line(
            [f"e{d}" if on else "_e" for d, on in enumerate(eq.gated)],
            "_PH[phase]"))
    if low.source_names:
        emit(_unpack_line([f"pv{j}" for j in range(len(low.source_names))],
                          "offers"))
    for j, g in enumerate(eq.src_gate):
        if g:
            emit(f"pv{j} &= {g}  # an idle source presents void")
    if low.sink_names:
        emit(_unpack_line([f"sp{k}" for k in range(len(low.sink_names))],
                          "stops"))
    for k, _h in eq.sink_fixed:
        if eq.sink_gate[k]:
            emit(f"sp{k} |= _M ^ {eq.sink_gate[k]}  # an idle sink stops")
    probe = low.may_be_ambiguous
    eq.emit_stops(emit, "least", probe)
    # Read before the commit: a fixed stop is a register.
    emit("_ss = " + _tuple_expr([
        " | ".join(eq.stop("s", h) for h in outs) or "0"
        for outs in low.source_out_hops]))
    commits = eq.emit_edge(emit)
    if low.bridges:
        eq.emit_bridges(emit)
    # An ungated register returns its temporary; only gated ones commit.
    gated_commits = [c for c in commits if c[0]]
    if gated_commits:
        eq.emit_commit(emit, gated_commits)
    renamed = {register: temporary
               for gate, pairs in commits if not gate
               for register, temporary in pairs}
    emit("return (" + ", ".join((
        _tuple_expr([renamed.get(name, name) for name in registers]),
        _tuple_expr([f"f{i}" for i in range(eq.n_shells)]),
        "_ss", "_df" if probe else "0")) + ")")

    out = [
        '"""Generated by repro.skeleton.codegen (transition) — do not edit.',
        "",
        f"topology: {low.name}  fingerprint: {low.fingerprint}",
        f"variant: {'casu' if is_casu else 'carloni'}",
        '"""',
        "",
    ]
    if any(eq.gated):
        out.append("_PH = " + _tuple_expr([
            _tuple_expr([str(int(d.schedule[c])) for d in low.domains])
            for c in range(low.hyperperiod)]))
    out += ["", "", "def transition(registers, phase, offers, stops):"]
    out += ["    " + line for line in body]
    out.append("")
    return "\n".join(out)
