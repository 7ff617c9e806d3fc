"""Bit-parallel (SBFI-style) batch skeleton simulation.

The valid/stop skeleton is a pure boolean transition system, so a
whole fault campaign fits the classic single-bit-fault-injection trick:
pack one independent experiment per **bit plane** of a Python integer
and advance every plane with one bitwise AND/OR/NOT expression per
signal per cycle.  An EXP-R1-style campaign of N boundary faults turns
from N scalar simulations into one engine run: Python integers are
arbitrary-width, so the batch is never split into machine words.

Layout (see :mod:`repro.ir.planes` for the packing helpers):

* every hop valid, hop stop and protocol register is **one int** whose
  bit *p* is that signal's value in experiment plane *p*;
* plane 0 is conventionally the golden (fault-free) run of a campaign
  batch; verdicts are extracted per plane against it;
* per-plane counters (stop assertions, stops-on-voids, fires, accepts)
  are **vertical counters** — bit-sliced binary counters whose slice
  *i* holds bit *i* of every plane's count, so one ripple-carry ``add``
  per word keeps exact per-plane totals without a per-plane loop.

GALS (multi-clock) graphs need no per-plane masks: every plane shares
the topology, so a clock domain ticks for every plane or for none, and
each element checks its domain's schedule once per cycle through the
per-phase tables built at construction.  A bisynchronous-FIFO bridge's
occupancy is **thermometer-coded**: ``bridge_ge[b][k]`` has bit *p* set
iff plane *p* holds more than *k* tokens, so "non-empty" is
``ge[0]``, "full" is ``ge[depth - 1]`` and a ±1 step is a saturating
shift of the thermometer.

Bit-exactness against :class:`~repro.skeleton.sim.SkeletonSim` is the
contract: per plane, every update below evaluates the same monotone
equations in the same order as the scalar engine (a bitwise
Gauss-Seidel pass is the scalar pass applied to all planes at once, and
chaotic iteration of a monotone system from the same start converges to
the same least/greatest fixpoint), so registers, wires and counters
match cycle by cycle.  The differential suite in
``tests/skeleton/test_backend_conformance.py`` enforces it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..graph.model import SystemGraph
from ..ir import (
    RS_BRIDGE as _RS_BRIDGE,
    RS_FULL as _RS_FULL,
    RS_HALF as _RS_HALF,
    RS_HALF_REG as _RS_HALF_REG,
    SHELL as _SHELL,
    SRC as _SRC,
    LoweredSystem,
    lower,
    pack_planes,
)
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .sim import SkeletonResult

PatternMap = Mapping[str, Sequence[bool]]

__all__ = ["BitplaneSkeletonSim", "_VerticalCounter"]


class _VerticalCounter:
    """Bit-sliced per-plane counter (SBFI "vertical counter").

    ``slices[i]`` holds bit *i* of every plane's count.  ``add(word)``
    increments exactly the planes whose bit is set in *word* via a
    ripple carry across the slices — amortized O(1) integer ops per
    add (the classic binary-counter argument), never a per-plane loop.
    """

    __slots__ = ("slices",)

    def __init__(self):
        self.slices: List[int] = []

    def add(self, word: int) -> None:
        slices = self.slices
        for i in range(len(slices)):
            if not word:
                return
            carry = slices[i] & word
            slices[i] ^= word
            word = carry
        if word:
            slices.append(word)

    def value(self, plane: int) -> int:
        total = 0
        for i, word in enumerate(self.slices):
            if (word >> plane) & 1:
                total += 1 << i
        return total

    def values(self, planes: int) -> List[int]:
        return [self.value(p) for p in range(planes)]


def _occupancy_step(ge: List[int], up: int, down: int) -> None:
    """Move a thermometer-coded occupancy one step, per plane.

    Planes in *up* gain a token, planes in *down* lose one (the two
    must be disjoint).  ``ge'[k] = (ge[k] & (~down | ge[k+1])) |
    (up & ge[k-1])`` with ``ge[-1]`` all planes and ``ge[depth]`` none,
    so the step saturates at ``[0, depth]`` by construction.
    """
    below = -1
    top = len(ge) - 1
    for k in range(len(ge)):
        cur = ge[k]
        above = ge[k + 1] if k < top else 0
        ge[k] = (cur & (~down | above)) | (up & below)
        below = cur


class BitplaneSkeletonSim:
    """Simulate *batch* skeleton instances packed into bit planes.

    One sink/source script mapping per plane, both protocol variants,
    every relay-station kind, GALS clock domains and bridges,
    least/greatest fixpoints and ambiguity detection.
    """

    def __init__(
        self,
        graph: "SystemGraph | LoweredSystem",
        sink_patterns: Optional[Sequence[PatternMap]] = None,
        *,
        source_patterns: Optional[Sequence[PatternMap]] = None,
        batch: Optional[int] = None,
        variant: ProtocolVariant = DEFAULT_VARIANT,
        fixpoint: str = "least",
        detect_ambiguity: bool = True,
        telemetry=None,
    ):
        if fixpoint not in ("least", "greatest"):
            raise ValueError("fixpoint must be 'least' or 'greatest'")
        widths = {len(seq) for seq in (sink_patterns, source_patterns)
                  if seq is not None}
        if batch is not None:
            widths.add(batch)
        if len(widths) > 1:
            raise ValueError(f"inconsistent batch widths: {sorted(widths)}")
        if not widths:
            raise ValueError("need sink_patterns, source_patterns or batch")
        self.batch = widths.pop()
        if self.batch == 0:
            raise ValueError("need at least one instance")

        self.variant = variant
        self.fixpoint = fixpoint
        self.detect_ambiguity = detect_ambiguity
        self.telemetry = telemetry
        self._metrics_on = (telemetry is not None
                            and telemetry.metrics is not None)
        self._events_on = (telemetry is not None
                           and telemetry.events is not None)

        lowered = graph if isinstance(graph, LoweredSystem) else lower(graph)
        self.lowered = lowered.skeleton_view()
        self.graph = self.lowered.graph
        self.shell_names = list(self.lowered.shell_names)
        self.source_names = list(self.lowered.source_names)
        self.sink_names = list(self.lowered.sink_names)
        self._build_tables()
        self._build_schedules()
        self._build_scripts(source_patterns, sink_patterns)
        self.reset()

    # -- construction -------------------------------------------------------

    def _build_tables(self) -> None:
        low = self.lowered
        self._n_hops = len(low.hops)
        self._n_shells = len(self.shell_names)
        self._is_casu = self.variant.discards_void_stops
        self._guard = self._n_hops + self._n_shells + 2
        self._may_be_ambiguous = low.may_be_ambiguous
        # Without transparent half stations or direct shell-to-shell
        # hops every shell out-hop stop is fixed before the settle (a
        # registered station, a sink or a bridge write port), so one
        # pass over the shells is the fixpoint and both modes agree.
        self._single_pass = not low.may_be_ambiguous
        self._mask = (1 << self.batch) - 1

        self.shell_in_hops = [list(x) for x in low.shell_in_hops]
        self.src_out_hops = [list(x) for x in low.source_out_hops]
        self.sink_in_hop = list(low.sink_in_hop)
        rs_kinds = [r.tag for r in low.relays]
        self._n_rs = len(rs_kinds)
        rs_in = list(low.relay_in_hop)
        rs_out = list(low.relay_out_hop)

        # Same flat dispatch tables as the scalar engine.
        self._src_hops = [(h.index, h.producer_id) for h in low.hops
                          if h.producer_kind == _SRC]
        self._shellreg_hops = [(h.index, h.producer_reg) for h in low.hops
                               if h.producer_kind == _SHELL]
        self._bridge_hops = [(h.index, h.producer_id) for h in low.hops
                             if h.producer_kind == _RS_BRIDGE]
        self._rs_hops = [(h.index, h.producer_id) for h in low.hops
                         if h.producer_kind not in (_SRC, _SHELL,
                                                    _RS_BRIDGE)]
        self._full_fixed_hops = [
            (rs_id, rs_in[rs_id]) for rs_id, kind in enumerate(rs_kinds)
            if kind == _RS_FULL]
        self._halfreg_fixed_hops = [
            (rs_id, rs_in[rs_id]) for rs_id, kind in enumerate(rs_kinds)
            if kind == _RS_HALF_REG]
        self._sink_fixed_hops = [
            (sink_id, hop_in)
            for sink_id, hop_in in enumerate(self.sink_in_hop)
            if hop_in is not None]
        self._half_inout = [
            (rs_id, rs_in[rs_id], rs_out[rs_id])
            for rs_id, kind in enumerate(rs_kinds) if kind == _RS_HALF]
        self._rs_inout = [
            (rs_id, kind, rs_in[rs_id], rs_out[rs_id])
            for rs_id, kind in enumerate(rs_kinds)]
        self._shell_out_pairs = [
            [(hop_out, low.hops[hop_out].producer_reg)
             for hop_out in outs]
            for outs in low.shell_out_hops]
        self._n_regs = len(low.shell_regs)
        self._internal_hops = [
            h.index for h in low.hops
            if h.consumer_kind in (_SHELL, _RS_HALF)]

        self.bridge_names = list(low.bridge_names)
        self.bridge_depths = [b.depth for b in low.bridges]
        self._bridge_in_hop = list(low.bridge_in_hop)
        self._bridge_out_hop = list(low.bridge_out_hop)

    def _build_schedules(self) -> None:
        """Per-phase enable tables, indexed by ``cycle % hyperperiod``.

        Mirrors every ``cycle % hyperperiod`` gate of the scalar engine:
        an idle source presents void and freezes its phase, an idle
        sink asserts stop, an idle shell cannot fire and holds its
        registers, an idle relay holds its registers and each bridge
        port moves only on its own domain's ticks.  Single-clock
        systems get one phase with everything enabled.
        """
        low = self.lowered
        mask = self._mask
        self._hyperperiod = low.hyperperiod
        schedules = [d.schedule for d in low.domains]
        node_dom = low.node_domain
        edge_src_dom = [node_dom[e.src] for e in low.edges]
        shell_s = [schedules[node_dom[i]] for i in low.shell_ids]
        src_s = [schedules[node_dom[i]] for i in low.source_ids]
        sink_s = [schedules[node_dom[i]] for i in low.sink_ids]
        # Relay stations sit on the producer side of a crossing, so
        # they tick with their edge's source domain; bridges write in
        # the source domain and read in the destination domain.
        rs_s = [schedules[edge_src_dom[r.edge]] for r in low.relays]
        self._phases = []
        for c in range(self._hyperperiod):
            self._phases.append((
                [mask if s[c] else 0 for s in shell_s],
                [(shell_id, pairs)
                 for shell_id, pairs in enumerate(self._shell_out_pairs)
                 if shell_s[shell_id][c]],
                [s[c] for s in src_s],
                [hop for sink_id, hop in self._sink_fixed_hops
                 if not sink_s[sink_id][c]],
                [entry for entry in self._rs_inout
                 if rs_s[entry[0]][c]],
                [(b.index, self._bridge_in_hop[b.index],
                  self._bridge_out_hop[b.index],
                  schedules[b.src_domain][c], schedules[b.dst_domain][c])
                 for b in low.bridges],
            ))

    def _build_scripts(self, source_patterns, sink_patterns) -> None:
        b = self.batch

        def _patterns(names, per_instance, default):
            """Per name: one script tuple per plane (validated)."""
            known = set(names)
            instances = ([(m or {}) for m in per_instance]
                         if per_instance is not None else [{}] * b)
            for mapping in instances:
                for name in mapping:
                    if name not in known:
                        raise ValueError(f"unknown script target {name!r}")
            table = []
            for name in names:
                planes = []
                for mapping in instances:
                    pattern = mapping.get(name)
                    if pattern is None:
                        planes.append(default)
                    else:
                        # Truthiness is all packing ever reads, so a
                        # plain tuple() keeps campaign-sized batches
                        # from paying a per-element bool() pass.
                        pattern = tuple(pattern)
                        if not pattern:
                            raise ValueError("empty script pattern")
                        planes.append(pattern)
                table.append(planes)
            return table

        self._src_pats = _patterns(self.source_names, source_patterns,
                                   (True,))
        self._sink_pats = _patterns(self.sink_names, sink_patterns,
                                    (False,))

        # Planes whose source script presents one value at every phase
        # contribute fixed bits to the presented word; only the others
        # are looked up per cycle.  When every plane's script has length
        # 1 the phases never move, so their advance is skipped too.
        self._src_words: List[Tuple[int, List[Tuple[int, Tuple]]]] = [
            (pack_planes([all(p) for p in planes]),
             [(p, pattern) for p, pattern in enumerate(planes)
              if any(pattern) and not all(pattern)])
            for planes in self._src_pats]
        self._src_static = [all(len(p) == 1 for p in planes)
                            for planes in self._src_pats]

        # Sink stops are cycle-indexed: expand each sink's per-plane
        # schedule to one plane word per cycle over the lcm span, once.
        # Planes sharing a script share one mask, and only asserted
        # positions are visited (campaign scripts are mostly False).
        # Fall back to a per-cycle pack when the lcm is unreasonable.
        self._sink_sched: List[Optional[List[int]]] = []
        for planes in self._sink_pats:
            span = math.lcm(*(len(p) for p in planes))
            if span > 4096:
                self._sink_sched.append(None)
                continue
            masks: Dict[Tuple, int] = {}
            for p, pattern in enumerate(planes):
                masks[pattern] = masks.get(pattern, 0) | (1 << p)
            words = [0] * span
            for pattern, plane_mask in masks.items():
                for i, bit in enumerate(pattern):
                    if bit:
                        for c in range(i, span, len(pattern)):
                            words[c] |= plane_mask
            self._sink_sched.append(words)

        # Per-plane state-key phase modulus: the plane's sink script
        # period folded with the clock-domain hyperperiod, exactly as
        # the scalar engine's state() does.
        self._key_mod = [
            math.lcm(math.lcm(*(len(planes[p])
                                for planes in self._sink_pats))
                     if self._sink_pats else 1,
                     self._hyperperiod)
            for p in range(b)]

    # -- state --------------------------------------------------------------

    def reset(self) -> None:
        b = self.batch
        self.cycle = 0
        # Shell out registers start VALID (paper footnote 1); relay
        # stations start VOID and bridges empty — identical to the
        # scalar engine.
        self.shell_reg = [self._mask] * self._n_regs
        self.rs_main = [0] * self._n_rs
        self.rs_aux = [0] * self._n_rs
        self.rs_stop_reg = [0] * self._n_rs
        self.bridge_ge = [[0] * depth for depth in self.bridge_depths]
        # Scheduled occupancy perturbations (see poke_bridge).
        self._bridge_pokes: List[Tuple[int, int, int, int, int]] = []
        # Script phase of plane p = (ticks - holds[p]) % len(pattern):
        # a source advances on every tick of its domain unless its
        # presented token is held, so only held planes cost work.
        self._src_ticks = [0] * len(self.source_names)
        self._src_holds = [[0] * b for _ in self.source_names]
        self.ambiguous_cycles: List[List[int]] = [[] for _ in range(b)]
        self._fire_history: List[List[int]] = []
        self._accept_history: List[List[int]] = []
        self.shell_fired = [_VerticalCounter() for _ in self.shell_names]
        self.sink_accepted = [_VerticalCounter() for _ in self.sink_names]
        self.stop_assertions = _VerticalCounter()
        self.stops_on_voids = _VerticalCounter()
        self.internal_stops_on_voids = _VerticalCounter()
        # Telemetry accumulators (updated only when metrics are on).
        self.hop_stall_cycles = [_VerticalCounter()
                                 for _ in range(self._n_hops)]
        self.rs_occupancy_counts = [
            [_VerticalCounter() for _level in range(3)]
            for _ in range(self._n_rs)]
        self.bridge_occupancy_counts = [
            [_VerticalCounter() for _level in range(depth + 1)]
            for depth in self.bridge_depths]

    @property
    def src_phase(self) -> List[List[int]]:
        """Per source, every plane's script phase (scalar layout)."""
        return [[(ticks - held) % len(pattern)
                 for held, pattern in zip(holds, planes)]
                for ticks, holds, planes in zip(
                    self._src_ticks, self._src_holds, self._src_pats)]

    def state_keys(self, planes: Optional[Sequence[int]] = None) \
            -> List[Tuple]:
        """One hashable snapshot per plane (mirrors scalar state()).

        *planes* restricts the extraction to those planes (in order);
        default every plane.
        """
        words = (self.shell_reg + self.rs_main + self.rs_aux
                 + self.rs_stop_reg
                 + [word for ge in self.bridge_ge for word in ge])
        cycle = self.cycle
        phases = self.src_phase
        keys = []
        for p in (range(self.batch) if planes is None else planes):
            packed = 0
            for word in words:
                packed = (packed << 1) | ((word >> p) & 1)
            keys.append((
                packed,
                tuple(phase[p] for phase in phases),
                cycle % self._key_mod[p],
            ))
        return keys

    def poke_bridge(self, instance: int, bridge, cycle: int,
                    delta: int, duration: int = 1) -> None:
        """Schedule a bridge occupancy perturbation for one plane.

        Mirrors :meth:`SkeletonSim.poke_bridge` with an explicit
        *instance* (plane): on each cycle in ``[cycle, cycle +
        duration)`` the bridge's occupancy in that plane is nudged by
        *delta* after the normal update, clamped to ``[0, depth]``.
        Pokes apply in registration order.
        """
        if not 0 <= instance < self.batch:
            raise IndexError(
                f"instance {instance} out of range for batch "
                f"{self.batch}")
        if isinstance(bridge, str):
            try:
                b_id = self.bridge_names.index(bridge)
            except ValueError:
                raise KeyError(
                    f"no bridge named {bridge!r} "
                    f"(bridges: {self.bridge_names})") from None
        else:
            b_id = bridge
            if not 0 <= b_id < len(self.bridge_depths):
                raise KeyError(f"no bridge with index {b_id}")
        self._bridge_pokes.append(
            (b_id, 1 << instance, cycle, cycle + duration, delta))

    # -- per-cycle evaluation ------------------------------------------------

    def _presented_words(self, src_on: List[bool]) -> List[int]:
        presented = []
        for j, (word, varying) in enumerate(self._src_words):
            if not src_on[j]:
                presented.append(0)  # idle domain: void, phase frozen
                continue
            ticks = self._src_ticks[j]
            holds = self._src_holds[j]
            for p, pattern in varying:
                if pattern[(ticks - holds[p]) % len(pattern)]:
                    word |= 1 << p
            presented.append(word)
        return presented

    def _sink_stop_word(self, sink_id: int) -> int:
        sched = self._sink_sched[sink_id]
        if sched is not None:
            return sched[self.cycle % len(sched)]
        cycle = self.cycle
        word = 0
        for p, pattern in enumerate(self._sink_pats[sink_id]):
            if pattern[cycle % len(pattern)]:
                word |= 1 << p
        return word

    def _forward_valids(self, presented: List[int]) -> List[int]:
        valid = [0] * self._n_hops
        for hop_id, src_id in self._src_hops:
            valid[hop_id] = presented[src_id]
        shell_reg = self.shell_reg
        for hop_id, reg in self._shellreg_hops:
            valid[hop_id] = shell_reg[reg]
        rs_main = self.rs_main
        for hop_id, rs_id in self._rs_hops:
            valid[hop_id] = rs_main[rs_id]
        # A bridge presents its head-of-FIFO: valid iff non-empty.
        bridge_ge = self.bridge_ge
        for hop_id, b_id in self._bridge_hops:
            valid[hop_id] = bridge_ge[b_id][0]
        return valid

    def _shell_fire_word(self, shell_id: int, valid: List[int],
                         stop: List[int], enabled: int) -> int:
        word = enabled
        for hop_in in self.shell_in_hops[shell_id]:
            word &= valid[hop_in]
        if not word:
            return 0
        shell_reg = self.shell_reg
        if self._is_casu:
            for hop_out, reg in self._shell_out_pairs[shell_id]:
                word &= ~(stop[hop_out] & shell_reg[reg])
        else:
            for hop_out, _reg in self._shell_out_pairs[shell_id]:
                word &= ~stop[hop_out]
        return word

    def _settle_stops(self, valid: List[int], mode: str,
                      shell_en: List[int], sink_idle: List[int]) \
            -> Tuple[List[int], List[int]]:
        """Per-plane fixpoint of the monotone stop equations.

        The scalar engine's in-place (Gauss-Seidel) pass, on plane
        words: every plane sees exactly the scalar update sequence, so
        each converges to the same least/greatest fixpoint within the
        same guard; planes that converge early are at a fixpoint and
        extra passes leave them unchanged.  Returns ``(stop, fires)``.
        """
        mask = self._mask
        stop = [mask if mode == "greatest" else 0] * self._n_hops
        # Registered / scripted / state-derived stops are fixed
        # regardless of mode.
        rs_stop_reg = self.rs_stop_reg
        rs_main = self.rs_main
        for rs_id, hop_in in self._full_fixed_hops:
            stop[hop_in] = rs_stop_reg[rs_id]
        for rs_id, hop_in in self._halfreg_fixed_hops:
            stop[hop_in] = rs_main[rs_id]
        for sink_id, hop_in in self._sink_fixed_hops:
            stop[hop_in] = self._sink_stop_word(sink_id)
        # An idle sink cannot accept; a bridge write port stops while
        # the FIFO is full.
        for hop_in in sink_idle:
            stop[hop_in] = mask
        bridge_ge = self.bridge_ge
        for b_id, hop_in in enumerate(self._bridge_in_hop):
            stop[hop_in] = bridge_ge[b_id][-1]

        is_casu = self._is_casu
        shell_in_hops = self.shell_in_hops
        shell_fire = self._shell_fire_word
        n_shells = self._n_shells
        if self._single_pass:
            fires = []
            for shell_id in range(n_shells):
                fire = shell_fire(shell_id, valid, stop, shell_en[shell_id])
                fires.append(fire)
                stalled = fire ^ mask
                for hop_in in shell_in_hops[shell_id]:
                    stop[hop_in] = (stalled & valid[hop_in] if is_casu
                                    else stalled)
            return stop, fires

        changed = True
        guard = self._guard
        half_inout = self._half_inout
        while changed and guard > 0:
            changed = False
            guard -= 1
            # Transparent half relay stations.
            for rs_id, hop_in, hop_out in half_inout:
                if is_casu:
                    value = stop[hop_out] & rs_main[rs_id]
                else:
                    value = stop[hop_out]
                if stop[hop_in] != value:
                    stop[hop_in] = value
                    changed = True
            # Shells: stall propagates from outputs to all inputs.
            for shell_id in range(n_shells):
                stalled = shell_fire(shell_id, valid, stop,
                                     shell_en[shell_id]) ^ mask
                for hop_in in shell_in_hops[shell_id]:
                    value = stalled & valid[hop_in] if is_casu else stalled
                    if stop[hop_in] != value:
                        stop[hop_in] = value
                        changed = True
        fires = [shell_fire(i, valid, stop, shell_en[i])
                 for i in range(n_shells)]
        return stop, fires

    def _apply_edge(self, valid: List[int], stop: List[int],
                    fires: List[int], shells_on, relays_on,
                    bridge_ports) -> None:
        """Register updates (mirror SkeletonSim._apply_edge per plane).

        Only elements whose domain ticks this cycle appear in
        *shells_on* / *relays_on*; the rest hold their registers.
        """
        shell_reg = self.shell_reg
        for shell_id, pairs in shells_on:
            fire = fires[shell_id]
            for hop_out, reg in pairs:
                # fired -> True; else held = reg and stop.
                shell_reg[reg] = fire | (shell_reg[reg] & stop[hop_out])

        mask = self._mask
        rs_main = self.rs_main
        rs_aux = self.rs_aux
        rs_stop_reg = self.rs_stop_reg
        for rs_id, kind, hop_in, hop_out in relays_on:
            stop_in = stop[hop_out]
            incoming = valid[hop_in]
            main = rs_main[rs_id]
            # slot_consumed(main, stop_in) per plane, both variants.
            consumed = (~main | ~stop_in) & mask
            not_consumed = consumed ^ mask
            if kind == _RS_FULL:
                aux = rs_aux[rs_id]
                stop_reg = rs_stop_reg[rs_id]
                accepted = incoming & ~stop_reg
                queued = aux | accepted
                rs_main[rs_id] = (consumed & queued) | (not_consumed & main)
                rs_aux[rs_id] = not_consumed & queued
                rs_stop_reg[rs_id] = not_consumed & (
                    stop_reg | (accepted & ~aux))
            else:  # half variants share the single-register update
                accepted = incoming & ~stop[hop_in]
                rs_main[rs_id] = ((consumed & accepted)
                                  | (not_consumed & main))

        # Bridges: occupancy moves by (write in the source domain)
        # minus (read in the destination domain), each gated on its
        # own port's schedule; pokes follow in registration order.
        bridge_ge = self.bridge_ge
        for b_id, hop_in, hop_out, write_on, read_on in bridge_ports:
            ge = bridge_ge[b_id]
            wrote = valid[hop_in] & ~ge[-1] if write_on else 0
            read = ge[0] & ~stop[hop_out] if read_on else 0
            if wrote != read:
                _occupancy_step(ge, wrote & ~read, read & ~wrote)
        cycle = self.cycle
        for b_id, plane, lo, hi, delta in self._bridge_pokes:
            if lo <= cycle < hi:
                ge = bridge_ge[b_id]
                up, down = (plane, 0) if delta > 0 else (0, plane)
                for _ in range(min(abs(delta), len(ge))):
                    _occupancy_step(ge, up, down)

    def step(self) -> Tuple[List[int], List[int]]:
        """Advance all planes one cycle; returns (fire, accept) words."""
        (shell_en, shells_on, src_on, sink_idle, relays_on,
         bridge_ports) = self._phases[self.cycle % self._hyperperiod]
        presented = self._presented_words(src_on)
        valid = self._forward_valids(presented)
        stop, fires = self._settle_stops(valid, self.fixpoint, shell_en,
                                         sink_idle)
        if self.detect_ambiguity and self._may_be_ambiguous:
            other = "greatest" if self.fixpoint == "least" else "least"
            alt, _alt_fires = self._settle_stops(valid, other, shell_en,
                                                 sink_idle)
            differs = 0
            for a, s in zip(alt, stop):
                differs |= a ^ s
            if differs:
                cycle = self.cycle
                for p in range(self.batch):
                    if (differs >> p) & 1:
                        self.ambiguous_cycles[p].append(cycle)
                if self._events_on:
                    self.telemetry.events.emit(
                        "fixpoint", "ambiguous", cycle,
                        instances=[p for p in range(self.batch)
                                   if (differs >> p) & 1])

        collect = self._metrics_on
        mask = self._mask
        stop_ctr = self.stop_assertions
        void_ctr = self.stops_on_voids
        stall_ctrs = self.hop_stall_cycles
        for hop_id, word in enumerate(stop):
            if word:
                stop_ctr.add(word)
                void_ctr.add(word & ~valid[hop_id] & mask)
            if collect:
                stall_ctrs[hop_id].add(word)
        internal_ctr = self.internal_stops_on_voids
        for hop_id in self._internal_hops:
            word = stop[hop_id] & ~valid[hop_id] & mask
            if word:
                internal_ctr.add(word)

        accepts = [
            (valid[hop] & ~stop[hop] & mask) if hop is not None else 0
            for hop in self.sink_in_hop
        ]

        self._apply_edge(valid, stop, fires, shells_on, relays_on,
                         bridge_ports)

        if collect:
            for rs_id in range(self._n_rs):
                main = self.rs_main[rs_id]
                aux = self.rs_aux[rs_id]
                counters = self.rs_occupancy_counts[rs_id]
                counters[0].add(~(main | aux) & mask)
                counters[1].add(main ^ aux)
                counters[2].add(main & aux)
            # Level L holds exactly when ge[L-1] & ~ge[L].
            for ge, counters in zip(self.bridge_ge,
                                    self.bridge_occupancy_counts):
                below = mask
                for level, word in enumerate(ge):
                    counters[level].add(below & ~word)
                    below = word
                counters[-1].add(below)
        if self._events_on:
            # Aggregate (batch-wide) per-cycle counts; per-instance
            # event streams come from the scalar engine.
            events = self.telemetry.events
            events.emit("token", "fire", self.cycle,
                        count=sum(w.bit_count() for w in fires),
                        instances=self.batch)
            accepted_total = sum(w.bit_count() for w in accepts)
            if accepted_total:
                events.emit("token", "accept", self.cycle,
                            count=accepted_total)
            stalled_total = sum(w.bit_count() for w in stop)
            if stalled_total:
                events.emit("stall", "assert", self.cycle,
                            count=stalled_total)

        # Source phase advance: a presented-but-held token freezes the
        # phase (the environment must re-present it next cycle), and so
        # does an idle clock domain.
        for src_id, out_hops in enumerate(self.src_out_hops):
            if self._src_static[src_id] or not src_on[src_id]:
                continue
            self._src_ticks[src_id] += 1
            held = 0
            for hop in out_hops:
                held |= stop[hop]
            held &= presented[src_id]
            holds = self._src_holds[src_id]
            while held:
                low = held & -held
                holds[low.bit_length() - 1] += 1
                held ^= low

        for ctr, word in zip(self.shell_fired, fires):
            ctr.add(word)
        for ctr, word in zip(self.sink_accepted, accepts):
            ctr.add(word)
        self._fire_history.append(fires)
        self._accept_history.append(accepts)
        self.cycle += 1
        return fires, accepts

    def run(self, cycles: int) -> None:
        """Step all planes a fixed number of cycles."""
        for _ in range(cycles):
            self.step()

    def run_to_period(self, max_cycles: int = 10_000) \
            -> List[SkeletonResult]:
        """Simulate until every plane is periodic; one result each."""
        b = self.batch
        seen: List[Dict[Tuple, int]] = [dict() for _ in range(b)]
        transient: List[Optional[int]] = [None] * b
        period: List[Optional[int]] = [None] * b
        for p, key in enumerate(self.state_keys()):
            seen[p][key] = 0
        pending = list(range(b))
        for _ in range(max_cycles):
            if not pending:
                break
            self.step()
            still = []
            for p, key in zip(pending, self.state_keys(pending)):
                hit = seen[p].get(key)
                if hit is not None:
                    transient[p] = hit
                    period[p] = self.cycle - hit
                else:
                    seen[p][key] = self.cycle
                    still.append(p)
            pending = still
        if pending:
            from ..errors import PeriodicityTimeout

            raise PeriodicityTimeout(
                f"{self.graph.name}: instances {pending} not "
                f"periodic within {max_cycles} cycles "
                f"(state space larger than expected)",
                graph=self.graph.name, max_cycles=max_cycles)

        results = []
        for p in range(b):
            lo, hi = transient[p], transient[p] + period[p]
            shell_fires = {
                name: sum((self._fire_history[c][j] >> p) & 1
                          for c in range(lo, hi))
                for j, name in enumerate(self.shell_names)
            }
            sink_accepts = {
                name: sum((self._accept_history[c][j] >> p) & 1
                          for c in range(lo, hi))
                for j, name in enumerate(self.sink_names)
            }
            deadlocked = bool(self.shell_names) and all(
                count == 0 for count in shell_fires.values())
            ambiguous = self.ambiguous_cycles[p]
            results.append(SkeletonResult(
                transient=transient[p],
                period=period[p],
                shell_fires=shell_fires,
                sink_accepts=sink_accepts,
                cycles_run=self.cycle,
                deadlocked=deadlocked,
                potential_deadlock_cycle=(ambiguous[0] if ambiguous
                                          else None),
            ))
        return results

    # -- per-plane extraction ------------------------------------------------

    def fire_count(self, shell: int, plane: int) -> int:
        return self.shell_fired[shell].value(plane)

    def accept_count(self, sink: int, plane: int) -> int:
        return self.sink_accepted[sink].value(plane)

    def accept_history(self, plane: int) -> List[Tuple[bool, ...]]:
        """Per cycle, each sink's acceptance bit in *plane*."""
        return [tuple(bool((word >> plane) & 1) for word in words)
                for words in self._accept_history]

    # -- telemetry ----------------------------------------------------------

    def metrics_snapshot(self, instance: int = 0) -> Dict[str, Dict]:
        """Canonical metrics snapshot for one plane.

        Bit-identical to :meth:`SkeletonSim.metrics_snapshot` with the
        same scripts (the conformance suite asserts this).
        """
        from ..obs import MetricsRegistry

        if not 0 <= instance < self.batch:
            raise IndexError(
                f"instance {instance} out of range for batch "
                f"{self.batch}")
        registry = MetricsRegistry()
        cycles = self.cycle
        registry.counter("skeleton/cycles").inc(cycles)
        for i, name in enumerate(self.shell_names):
            fires = self.shell_fired[i].value(instance)
            registry.counter(f"skeleton/shell/{name}/fires").inc(fires)
            registry.gauge(f"skeleton/shell/{name}/fire_rate").set(
                fires / cycles if cycles else 0.0)
        for i, name in enumerate(self.sink_names):
            registry.counter(f"skeleton/sink/{name}/accepts").inc(
                self.sink_accepted[i].value(instance))
        registry.counter("skeleton/stop/assertions").inc(
            self.stop_assertions.value(instance))
        registry.counter("skeleton/stop/on_voids").inc(
            self.stops_on_voids.value(instance))
        registry.counter("skeleton/stop/on_voids_internal").inc(
            self.internal_stops_on_voids.value(instance))
        registry.counter("skeleton/fixpoint/ambiguous").inc(
            len(self.ambiguous_cycles[instance]))
        if self._metrics_on:
            hop_names = self.lowered.hop_names
            for hop_id in range(self._n_hops):
                registry.counter(
                    f"skeleton/channel/{hop_names[hop_id]}"
                    f"/stall_cycles").inc(
                        self.hop_stall_cycles[hop_id].value(instance))
            histograms = (
                [(f"skeleton/relay/{name}/occupancy", counters)
                 for name, counters in zip(self.lowered.relay_names,
                                           self.rs_occupancy_counts)]
                + [(f"skeleton/bridge/{name}/occupancy", counters)
                   for name, counters in zip(self.bridge_names,
                                             self.bridge_occupancy_counts)])
            for key, counters in histograms:
                hist = registry.histogram(key)
                for level, counter in enumerate(counters):
                    count = counter.value(instance)
                    if count:
                        hist.observe(level, count)
        return registry.snapshot()
