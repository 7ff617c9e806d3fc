"""Skeleton simulation: valid/stop dynamics without data.

Paper: *"we are allowed to simulate just the skeleton of the system
consisting of stop and valid signals, thus the simulation cost is
absolutely negligible"*.  The skeleton simulator runs the exact control
semantics of the LID blocks (DESIGN.md §4) on bare bits — no payloads,
no pearls — directly from a :class:`~repro.graph.model.SystemGraph`.

It is the workhorse behind:

* throughput measurement (fires per period, exact rationals);
* transient/period extraction (state-hash periodicity detection);
* deadlock checking (a period with zero firings), including the
  *potential* deadlock of half-relay-stations-in-loops, detected as an
  ambiguous stop network: the monotone stop equations admitting more
  than one fixpoint in a reachable state (least = optimistic hardware,
  greatest = latch-up; real gates could settle on either).

Source availability and sink back pressure are modelled as repeating
bit patterns so that the composite state is finite and periodicity is
guaranteed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.model import SystemGraph
from ..ir import (
    RS_BRIDGE,
    RS_FULL,
    RS_HALF,
    RS_HALF_REG,
    SHELL,
    SINK,
    SRC,
    LoweredSystem,
    lower,
)
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .periodicity import SkeletonResult, run_to_period

# Element kind tags (kept as small ints for compact state tuples).
# Canonically defined by repro.ir; the historical underscore aliases
# stay because older call sites import them.
_SRC, _SHELL, _SINK, _RS_FULL, _RS_HALF, _RS_HALF_REG, _RS_BRIDGE = (
    SRC, SHELL, SINK, RS_FULL, RS_HALF, RS_HALF_REG, RS_BRIDGE)


class SkeletonSim:
    """Bit-level simulator of a system graph's valid/stop skeleton."""

    def __init__(
        self,
        graph: "SystemGraph | LoweredSystem",
        variant: ProtocolVariant = DEFAULT_VARIANT,
        fixpoint: str = "least",
        source_patterns: Optional[Dict[str, Sequence[bool]]] = None,
        sink_patterns: Optional[Dict[str, Sequence[bool]]] = None,
        detect_ambiguity: bool = True,
        telemetry=None,
    ):
        if fixpoint not in ("least", "greatest"):
            raise ValueError("fixpoint must be 'least' or 'greatest'")
        # One canonical construction path: lower the graph (memoized
        # per graph object) and simulate its skeleton view — queued
        # shells are modelled via their relay-station desugaring (see
        # repro.graph.transform.desugar_queues).  A pre-lowered
        # LoweredSystem is accepted directly (campaigns share one).
        lowered = graph if isinstance(graph, LoweredSystem) else lower(graph)
        self.lowered = lowered.skeleton_view()
        self.graph = self.lowered.graph
        self.variant = variant
        # The variant is immutable for the lifetime of the simulator;
        # pre-binding the flag keeps the per-shell, per-settle-pass
        # attribute chase out of the hot loops.
        self._is_casu = variant.discards_void_stops
        self.fixpoint = fixpoint
        self.detect_ambiguity = detect_ambiguity
        # Telemetry is opt-in; the flags below keep the per-cycle cost
        # of the disabled path to a single branch.
        self.telemetry = telemetry
        self._metrics_on = (telemetry is not None
                            and telemetry.metrics is not None)
        self._events_on = (telemetry is not None
                           and telemetry.events is not None)
        self._build(source_patterns or {}, sink_patterns or {})
        self.reset()

    # -- construction -------------------------------------------------------

    def _build(self, source_patterns, sink_patterns) -> None:
        # All wiring tables come from the canonical lowering; this
        # method only binds the environment scripts and derives the
        # flat dispatch tables for the hot loops.
        low = self.lowered
        self.shell_names = list(low.shell_names)
        self.source_names = list(low.source_names)
        self.sink_names = list(low.sink_names)

        self.src_pattern: List[Tuple[bool, ...]] = [
            tuple(bool(b) for b in source_patterns.get(n, (True,)))
            for n in self.source_names
        ]
        self.sink_pattern: List[Tuple[bool, ...]] = [
            tuple(bool(b) for b in sink_patterns.get(n, (False,)))
            for n in self.sink_names
        ]
        lengths = [len(p) for p in self.sink_pattern] or [1]
        self.sink_phase_mod = math.lcm(*lengths)

        # -- GALS clock-domain tables --------------------------------
        # ``_gals`` keeps every hot loop on the exact pre-refactor path
        # for single-clock systems; the tables below are only consulted
        # (and only built) for genuinely multi-rate lowerings.
        self._gals = not low.single_clock
        self.hyperperiod = low.hyperperiod
        self.bridge_names: List[str] = list(low.bridge_names)
        self.bridge_depths: List[int] = [b.depth for b in low.bridges]
        self.bridge_in_hop: List[int] = list(low.bridge_in_hop)
        self.bridge_out_hop: List[int] = list(low.bridge_out_hop)
        if self._gals:
            schedules = [d.schedule for d in low.domains]
            node_dom = low.node_domain
            self._shell_sched = [
                schedules[node_dom[i]] for i in low.shell_ids]
            self._src_sched = [
                schedules[node_dom[i]] for i in low.source_ids]
            self._sink_sched = [
                schedules[node_dom[i]] for i in low.sink_ids]
            # Relay stations on a bridged edge sit on the producer side
            # of the crossing: they are clocked by the edge's source
            # domain.  Bridges write in the source domain and read in
            # the destination domain.
            edge_src_dom = [node_dom[e.src] for e in low.edges]
            self._rs_sched = [
                schedules[edge_src_dom[r.edge]] for r in low.relays]
            self._bridge_wsched = [
                schedules[b.src_domain] for b in low.bridges]
            self._bridge_rsched = [
                schedules[b.dst_domain] for b in low.bridges]
        else:
            self._shell_sched = self._src_sched = self._sink_sched = []
            self._rs_sched = []
            self._bridge_wsched = self._bridge_rsched = []
        # Period of the environment/schedule phase folded into state().
        self._phase_mod = math.lcm(self.sink_phase_mod, self.hyperperiod)

        self.rs_kinds: List[int] = [r.tag for r in low.relays]
        self.rs_names: List[str] = list(low.relay_names)
        self.hops = list(low.hops)
        # One stable name per hop (wire segment), e.g. "A->B[0]"; used
        # as the channel key in telemetry metric paths and trace events.
        self.hop_names: List[str] = list(low.hop_names)
        self.shell_in_hops: List[List[int]] = [
            list(x) for x in low.shell_in_hops]
        self.shell_out_hops: List[List[int]] = [
            list(x) for x in low.shell_out_hops]
        self.src_out_hops: List[List[int]] = [
            list(x) for x in low.source_out_hops]
        self.sink_in_hop: List[Optional[int]] = list(low.sink_in_hop)
        self.rs_in_hop: List[int] = list(low.relay_in_hop)
        self.rs_out_hop: List[int] = list(low.relay_out_hop)
        # Shell out registers: one bit per edge; register id -> shell id.
        self.shell_reg_owner: List[int] = [
            shell for shell, _edge in low.shell_regs]

        # The stop network can only have multiple fixpoints when a
        # combinational cycle exists, which requires a transparent half
        # relay station or a direct shell-to-shell hop somewhere.
        self._may_be_ambiguous = low.may_be_ambiguous

        # Flat dispatch tables for the hot per-cycle loops.
        self._src_hops: List[Tuple[int, int]] = []
        self._shellreg_hops: List[Tuple[int, int]] = []
        self._rs_hops: List[Tuple[int, int]] = []
        self._bridge_hops: List[Tuple[int, int]] = []
        for hop_id, hop in enumerate(self.hops):
            if hop.producer_kind == _SRC:
                self._src_hops.append((hop_id, hop.producer_id))
            elif hop.producer_kind == _SHELL:
                self._shellreg_hops.append((hop_id, hop.producer_reg))
            elif hop.producer_kind == _RS_BRIDGE:
                self._bridge_hops.append((hop_id, hop.producer_id))
            else:
                self._rs_hops.append((hop_id, hop.producer_id))
        self._transparent_half_ids = [
            rs_id for rs_id, kind in enumerate(self.rs_kinds)
            if kind == _RS_HALF
        ]
        # Everything below is invariant after construction; resolving
        # it once keeps the per-cycle loops free of repeated kind
        # dispatch and attribute chases (these loops dominate the
        # skeleton profile on long runs).
        self._full_fixed_hops = [
            (rs_id, self.rs_in_hop[rs_id])
            for rs_id, kind in enumerate(self.rs_kinds)
            if kind == _RS_FULL
        ]
        self._halfreg_fixed_hops = [
            (rs_id, self.rs_in_hop[rs_id])
            for rs_id, kind in enumerate(self.rs_kinds)
            if kind == _RS_HALF_REG
        ]
        self._sink_fixed_hops = [
            (sink_id, hop_in)
            for sink_id, hop_in in enumerate(self.sink_in_hop)
            if hop_in is not None
        ]
        self._bridge_fixed_hops = [
            (b_id, hop_in)
            for b_id, hop_in in enumerate(self.bridge_in_hop)
        ]
        self._half_inout = [
            (rs_id, self.rs_in_hop[rs_id], self.rs_out_hop[rs_id])
            for rs_id in self._transparent_half_ids
        ]
        self._rs_inout = [
            (rs_id, kind, self.rs_in_hop[rs_id], self.rs_out_hop[rs_id])
            for rs_id, kind in enumerate(self.rs_kinds)
        ]
        self._shell_out_pairs = [
            [(hop_out, self.hops[hop_out].producer_reg)
             for hop_out in outs]
            for outs in self.shell_out_hops
        ]
        self._hop_internal = [
            h.consumer_kind in (_SHELL, _RS_HALF) for h in self.hops
        ]

    # -- state ---------------------------------------------------------------

    def reset(self) -> None:
        self.cycle = 0
        registers, _phase = self.initial_state
        (self.shell_reg, self.rs_main, self.rs_aux, self.rs_stop_reg,
         self.bridge_occ) = (list(r) for r in registers)
        # Scheduled occupancy perturbations (see poke_bridge).
        self._bridge_pokes: List[Tuple[int, int, int, int]] = []
        self.src_phase = [0] * len(self.source_names)
        self.fire_history: List[Tuple[bool, ...]] = []
        self.accept_history: List[Tuple[bool, ...]] = []
        self.ambiguous_cycles: List[int] = []
        # Paper claim instrumentation ("higher locality of management
        # of void/stop signals"): how many stop wires are asserted, how
        # many land on void tokens, and how many of those void-landing
        # stops were generated *combinationally by the protocol* (by a
        # shell or a transparent half station).  Scripted sink stops
        # and registered full-station credits are validity-blind by
        # nature and excluded from the internal count.
        self.stop_assertions_total = 0
        self.stops_on_voids_total = 0
        self.internal_stops_on_voids_total = 0
        # Telemetry accumulators (only filled when metrics are on):
        # per-hop stall cycles and per-relay end-of-cycle occupancy
        # distribution ({0,1,2} -> cycles).  See metrics_snapshot().
        self.hop_stall_cycles = [0] * len(self.hops)
        self.rs_occupancy_counts = [[0, 0, 0] for _ in self.rs_kinds]
        self.bridge_occupancy_counts = [
            [0] * (depth + 1) for depth in self.bridge_depths]

    def state(self) -> Tuple:
        """Hashable snapshot of all registers and script phases.

        The phase term folds the sink-script period together with the
        clock-domain hyperperiod so periodicity detection sees the full
        environment/schedule state (both are 1 for unscripted
        single-clock systems).
        """
        return (
            tuple(self.shell_reg),
            tuple(self.rs_main),
            tuple(self.rs_aux),
            tuple(self.rs_stop_reg),
            tuple(self.bridge_occ),
            tuple(self.src_phase),
            self.cycle % self._phase_mod,
        )

    def state_keys(self, instances: Sequence[int] = (0,)) -> List[Tuple]:
        """:meth:`state` as the periodicity detector asks for it: one
        key per listed instance, and this engine has one."""
        return [self.state()]

    @property
    def quiet_from(self) -> List[int]:
        """The first cycle after every scheduled bridge poke (0 when
        none is scheduled), as a one-instance list."""
        return [max((hi for _b, _lo, hi, _d in self._bridge_pokes),
                    default=0)]

    @property
    def initial_state(self) -> Tuple:
        """The :meth:`step_from` state of a freshly reset simulator.

        Shell out registers start VALID (paper footnote 1), relay
        stations start VOID and bisynchronous-FIFO bridges empty; the
        clock phase is 0.
        """
        n_rs = len(self.rs_kinds)
        return (((True,) * len(self.shell_reg_owner), (False,) * n_rs,
                 (False,) * n_rs, (False,) * n_rs,
                 (0,) * len(self.bridge_depths)), 0)

    def poke_bridge(self, bridge, cycle: int, delta: int,
                    duration: int = 1) -> None:
        """Schedule a bridge occupancy perturbation (fault injection).

        On each cycle in ``[cycle, cycle + duration)`` the bridge's
        occupancy is nudged by *delta* after the normal update, clamped
        to ``[0, depth]`` — the over-/underflow fault models of the
        clock-domain-crossing campaigns.  *bridge* is a bridge name
        (see ``bridge_names``) or table index.
        """
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
            (b_id, cycle, cycle + duration, delta))

    # -- per-cycle evaluation ----------------------------------------------

    # The environment is an argument: ``offers``/``stops`` of ``None``
    # read the source and sink scripts (step), a sequence supplies one
    # bit per port (step_from).  ``phase`` is ``cycle % hyperperiod``.

    def _forward_valids(self, phase: int,
                        offers: Optional[Sequence[bool]] = None
                        ) -> List[bool]:
        valid = [False] * len(self.hops)
        if offers is not None:
            for hop_id, src_id in self._src_hops:
                valid[hop_id] = offers[src_id]
        else:
            for hop_id, src_id in self._src_hops:
                pattern = self.src_pattern[src_id]
                valid[hop_id] = pattern[self.src_phase[src_id]
                                        % len(pattern)]
        if self._gals:
            # A source in a domain that does not tick this base cycle
            # presents void (its phase is frozen in step()).
            for hop_id, src_id in self._src_hops:
                if not self._src_sched[src_id][phase]:
                    valid[hop_id] = False
        shell_reg = self.shell_reg
        for hop_id, reg in self._shellreg_hops:
            valid[hop_id] = shell_reg[reg]
        rs_main = self.rs_main
        for hop_id, rs_id in self._rs_hops:
            valid[hop_id] = rs_main[rs_id]
        # A bridge presents its head-of-FIFO: valid iff non-empty.
        bridge_occ = self.bridge_occ
        for hop_id, b_id in self._bridge_hops:
            valid[hop_id] = bridge_occ[b_id] > 0
        return valid

    def _settle_stops(self, valid: List[bool], mode: str, phase: int,
                      stops: Optional[Sequence[bool]] = None
                      ) -> List[bool]:
        """Fixpoint of the monotone stop equations (least or greatest)."""
        pessimistic = mode == "greatest"
        n_hops = len(self.hops)
        stop = [pessimistic] * n_hops
        # Registered / scripted stops are fixed regardless of mode.
        fixed = [False] * n_hops
        rs_stop_reg = self.rs_stop_reg
        rs_main = self.rs_main
        for rs_id, hop_in in self._full_fixed_hops:
            stop[hop_in] = rs_stop_reg[rs_id]
            fixed[hop_in] = True
        for rs_id, hop_in in self._halfreg_fixed_hops:
            stop[hop_in] = rs_main[rs_id]
            fixed[hop_in] = True
        if stops is not None:
            for sink_id, hop_in in self._sink_fixed_hops:
                stop[hop_in] = stops[sink_id]
                fixed[hop_in] = True
        else:
            cycle = self.cycle
            sink_pattern = self.sink_pattern
            for sink_id, hop_in in self._sink_fixed_hops:
                pattern = sink_pattern[sink_id]
                stop[hop_in] = pattern[cycle % len(pattern)]
                fixed[hop_in] = True
        if self._gals:
            # A sink whose domain does not tick this base cycle cannot
            # accept: it asserts stop unconditionally.  The bridge
            # write port asserts stop while the FIFO is full —
            # registered (state-derived), hence fixed during settle.
            for sink_id, hop_in in self._sink_fixed_hops:
                if not self._sink_sched[sink_id][phase]:
                    stop[hop_in] = True
                    fixed[hop_in] = True
            bridge_occ = self.bridge_occ
            bridge_depths = self.bridge_depths
            for b_id, hop_in in self._bridge_fixed_hops:
                stop[hop_in] = bridge_occ[b_id] >= bridge_depths[b_id]
                fixed[hop_in] = True

        changed = True
        guard = n_hops + len(self.shell_names) + 2
        is_casu = self._is_casu
        half_inout = self._half_inout
        shell_in_hops = self.shell_in_hops
        shell_fire = self._shell_fire
        n_shells = len(self.shell_names)
        while changed and guard > 0:
            changed = False
            guard -= 1
            # Transparent half relay stations.
            for rs_id, hop_in, hop_out in half_inout:
                if is_casu:
                    value = stop[hop_out] and rs_main[rs_id]
                else:
                    value = stop[hop_out]
                if stop[hop_in] != value and not fixed[hop_in]:
                    stop[hop_in] = value
                    changed = True
            # Shells: stall propagates from outputs to all inputs.
            for shell_id in range(n_shells):
                stalled = not shell_fire(shell_id, valid, stop, phase)
                for hop_in in shell_in_hops[shell_id]:
                    value = stalled and (valid[hop_in] or not is_casu)
                    if stop[hop_in] != value and not fixed[hop_in]:
                        stop[hop_in] = value
                        changed = True
        return stop

    def _shell_fire(self, shell_id: int, valid, stop, phase: int) -> bool:
        if self._gals and not self._shell_sched[shell_id][phase]:
            return False
        for hop_in in self.shell_in_hops[shell_id]:
            if not valid[hop_in]:
                return False
        is_casu = self._is_casu
        shell_reg = self.shell_reg
        for hop_out, reg in self._shell_out_pairs[shell_id]:
            if stop[hop_out] and (shell_reg[reg] or not is_casu):
                return False
        return True

    def _apply_edge(self, valid: List[bool], stop: List[bool],
                    fires: Tuple[bool, ...], phase: int) -> None:
        """Register updates (mirror repro.lid semantics exactly).

        In GALS mode an element whose clock domain does not tick this
        base cycle holds all of its registers; bridge occupancies move
        by (write in the source domain) minus (read in the destination
        domain), each gated on its own port's schedule.
        """
        gals = self._gals
        shell_reg = self.shell_reg
        new_shell_reg = list(shell_reg)
        shell_out_pairs = self._shell_out_pairs
        for shell_id, fired in enumerate(fires):
            if gals and not self._shell_sched[shell_id][phase]:
                continue
            for hop_out, reg in shell_out_pairs[shell_id]:
                if fired:
                    new_shell_reg[reg] = True
                else:
                    new_shell_reg[reg] = shell_reg[reg] and stop[hop_out]

        rs_main = self.rs_main
        rs_aux = self.rs_aux
        rs_stop_reg = self.rs_stop_reg
        new_main = list(rs_main)
        new_aux = list(rs_aux)
        new_stop_reg = list(rs_stop_reg)
        slot_consumed = self.variant.slot_consumed
        for rs_id, kind, hop_in, hop_out in self._rs_inout:
            if gals and not self._rs_sched[rs_id][phase]:
                continue
            stop_in = stop[hop_out]
            incoming = valid[hop_in]
            if kind == _RS_FULL:
                accepted = incoming and not rs_stop_reg[rs_id]
                consumed = slot_consumed(rs_main[rs_id], stop_in)
                if rs_aux[rs_id]:
                    if consumed:
                        new_main[rs_id] = rs_aux[rs_id]
                        new_aux[rs_id] = False
                        new_stop_reg[rs_id] = False
                elif consumed:
                    new_main[rs_id] = accepted
                    new_stop_reg[rs_id] = False
                elif accepted:
                    new_aux[rs_id] = True
                    new_stop_reg[rs_id] = True
            else:  # half variants share the single-register update
                consumed = slot_consumed(rs_main[rs_id], stop_in)
                accepted = incoming and not stop[hop_in]
                if consumed:
                    new_main[rs_id] = accepted
        self.shell_reg = new_shell_reg
        self.rs_main = new_main
        self.rs_aux = new_aux
        self.rs_stop_reg = new_stop_reg

        if gals:
            bridge_occ = self.bridge_occ
            bridge_depths = self.bridge_depths
            for b_id in range(len(bridge_occ)):
                occ = bridge_occ[b_id]
                wrote = (self._bridge_wsched[b_id][phase]
                         and valid[self.bridge_in_hop[b_id]]
                         and occ < bridge_depths[b_id])
                read = (self._bridge_rsched[b_id][phase]
                        and occ > 0
                        and not stop[self.bridge_out_hop[b_id]])
                bridge_occ[b_id] = occ + wrote - read

    def step(self) -> Tuple[Tuple[bool, ...], Tuple[bool, ...]]:
        """Advance one cycle; returns (shell fires, sink accepts)."""
        phase = self.cycle % self.hyperperiod
        valid = self._forward_valids(phase)
        stop = self._settle_stops(valid, self.fixpoint, phase)
        if self.detect_ambiguity and self._may_be_ambiguous:
            other = "greatest" if self.fixpoint == "least" else "least"
            alt = self._settle_stops(valid, other, phase)
            if alt != stop:
                self.ambiguous_cycles.append(self.cycle)
                if self._events_on:
                    self.telemetry.events.emit(
                        "fixpoint", "ambiguous", self.cycle)

        collect = self._metrics_on
        hop_stall = self.hop_stall_cycles
        hop_internal = self._hop_internal
        stops = voids = internal = 0
        for hop_id, asserted in enumerate(stop):
            if asserted:
                stops += 1
                if collect:
                    hop_stall[hop_id] += 1
                if not valid[hop_id]:
                    voids += 1
                    if hop_internal[hop_id]:
                        internal += 1
        self.stop_assertions_total += stops
        self.stops_on_voids_total += voids
        self.internal_stops_on_voids_total += internal

        fires = tuple(
            self._shell_fire(i, valid, stop, phase)
            for i in range(len(self.shell_names))
        )
        accepts = tuple(
            hop is not None and valid[hop] and not stop[hop]
            for hop, _pattern in zip(self.sink_in_hop, self.sink_pattern)
        )

        self._apply_edge(valid, stop, fires, phase)
        if self._bridge_pokes:
            cycle = self.cycle
            bridge_occ = self.bridge_occ
            for b_id, lo, hi, delta in self._bridge_pokes:
                if lo <= cycle < hi:
                    nudged = bridge_occ[b_id] + delta
                    depth = self.bridge_depths[b_id]
                    bridge_occ[b_id] = min(max(nudged, 0), depth)

        if collect:
            occupancy = self.rs_occupancy_counts
            rs_main, rs_aux = self.rs_main, self.rs_aux
            for rs_id in range(len(self.rs_kinds)):
                occupancy[rs_id][int(rs_main[rs_id])
                                 + int(rs_aux[rs_id])] += 1
            bridge_counts = self.bridge_occupancy_counts
            for b_id, occ in enumerate(self.bridge_occ):
                bridge_counts[b_id][occ] += 1
        if self._events_on:
            events = self.telemetry.events
            cycle = self.cycle
            for i, fired in enumerate(fires):
                if fired:
                    events.emit("token", "fire", cycle,
                                block=self.shell_names[i])
            for i, accepted in enumerate(accepts):
                if accepted:
                    events.emit("token", "accept", cycle,
                                sink=self.sink_names[i])
            for hop_id, asserted in enumerate(stop):
                if asserted:
                    events.emit("stall", "assert", cycle,
                                channel=self.hop_names[hop_id],
                                valid=valid[hop_id])

        gals = self._gals
        for src_id in range(len(self.source_names)):
            if gals and not self._src_sched[src_id][phase]:
                continue  # domain does not tick: pattern phase frozen
            pattern = self.src_pattern[src_id]
            presented = pattern[self.src_phase[src_id] % len(pattern)]
            held = False
            if presented:
                held = any(
                    stop[h] for h in self.src_out_hops[src_id]
                )
            if not held:
                self.src_phase[src_id] = (
                    (self.src_phase[src_id] + 1) % len(pattern)
                )

        self.fire_history.append(fires)
        self.accept_history.append(accepts)
        self.cycle += 1
        return fires, accepts

    def step_from(
        self,
        state: Tuple,
        offers: Sequence[bool],
        stops: Sequence[bool],
    ) -> Tuple[Tuple, Tuple[bool, ...], Tuple[bool, ...], bool]:
        """One cycle from *state* with the environment given explicitly.

        *state* is ``(registers, phase)``: the protocol registers and
        ``cycle % hyperperiod`` (see :attr:`initial_state`).  *offers*
        gives the validity each source presents, *stops* the stop each
        sink asserts.  A port whose clock domain does not tick at
        *phase* has no choice: its source presents void and its sink
        stops, whatever the arguments say.  The simulator's own
        registers, cycle, scripts and pokes are neither read nor
        changed, so the result depends on the arguments alone; this is
        the transition function the exhaustive liveness explorer walks.

        Returns ``(next state, shell fires, source stops, ambiguous)``.
        A source stop tells the caller its presented token was held
        (the environment contract: re-present it).  *ambiguous* is true
        when ``detect_ambiguity`` is on and the stop network had more
        than one fixpoint this cycle.
        """
        if len(offers) != len(self.source_names):
            raise ValueError("need one validity bit per source")
        if len(stops) != len(self.sink_names):
            raise ValueError("need one stop bit per sink")
        registers, phase = state
        saved = (self.shell_reg, self.rs_main, self.rs_aux,
                 self.rs_stop_reg, self.bridge_occ)
        (self.shell_reg, self.rs_main, self.rs_aux, self.rs_stop_reg,
         bridge_occ) = registers
        self.bridge_occ = list(bridge_occ)
        try:
            valid = self._forward_valids(phase, offers)
            stop = self._settle_stops(valid, self.fixpoint, phase, stops)
            ambiguous = False
            if self.detect_ambiguity and self._may_be_ambiguous:
                other = "greatest" if self.fixpoint == "least" else "least"
                ambiguous = self._settle_stops(
                    valid, other, phase, stops) != stop
            fires = tuple(
                self._shell_fire(i, valid, stop, phase)
                for i in range(len(self.shell_names))
            )
            src_stops = tuple(
                any(stop[h] for h in hops) for hops in self.src_out_hops)
            self._apply_edge(valid, stop, fires, phase)
            following = ((tuple(self.shell_reg), tuple(self.rs_main),
                          tuple(self.rs_aux), tuple(self.rs_stop_reg),
                          tuple(self.bridge_occ)),
                         (phase + 1) % self.hyperperiod)
        finally:
            (self.shell_reg, self.rs_main, self.rs_aux, self.rs_stop_reg,
             self.bridge_occ) = saved
        return following, fires, src_stops, ambiguous

    # -- telemetry ------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Dict]:
        """Canonical metrics snapshot of the run so far.

        The same snapshot (bit-identical keys and values) is produced
        by the bit-plane engine for each plane — the contract
        enforced by the differential conformance suite.  Per-hop stall
        cycles and relay occupancy distributions are present only when
        the simulator was constructed with metrics-collecting telemetry
        (they need per-cycle accumulation); everything else comes from
        the always-on counters.
        """
        from ..obs import MetricsRegistry

        registry = MetricsRegistry()
        cycles = self.cycle
        registry.counter("skeleton/cycles").inc(cycles)
        for i, name in enumerate(self.shell_names):
            fires = sum(1 for f in self.fire_history if f[i])
            registry.counter(f"skeleton/shell/{name}/fires").inc(fires)
            registry.gauge(f"skeleton/shell/{name}/fire_rate").set(
                fires / cycles if cycles else 0.0)
        for i, name in enumerate(self.sink_names):
            accepts = sum(1 for a in self.accept_history if a[i])
            registry.counter(f"skeleton/sink/{name}/accepts").inc(accepts)
        registry.counter("skeleton/stop/assertions").inc(
            self.stop_assertions_total)
        registry.counter("skeleton/stop/on_voids").inc(
            self.stops_on_voids_total)
        registry.counter("skeleton/stop/on_voids_internal").inc(
            self.internal_stops_on_voids_total)
        registry.counter("skeleton/fixpoint/ambiguous").inc(
            len(self.ambiguous_cycles))
        if self._metrics_on:
            for hop_id, stalls in enumerate(self.hop_stall_cycles):
                registry.counter(
                    f"skeleton/channel/{self.hop_names[hop_id]}"
                    f"/stall_cycles").inc(stalls)
            for rs_id, counts in enumerate(self.rs_occupancy_counts):
                hist = registry.histogram(
                    f"skeleton/relay/{self.rs_names[rs_id]}/occupancy")
                for level, count in enumerate(counts):
                    if count:
                        hist.observe(level, count)
            for b_id, counts in enumerate(self.bridge_occupancy_counts):
                hist = registry.histogram(
                    f"skeleton/bridge/{self.bridge_names[b_id]}"
                    f"/occupancy")
                for level, count in enumerate(counts):
                    if count:
                        hist.observe(level, count)
        return registry.snapshot()

    # -- analysis-level driver ------------------------------------------------

    def run(self, max_cycles: int = 10_000) -> SkeletonResult:
        """Simulate until the state becomes periodic (or *max_cycles*).

        The paper's key observation — after a system-dependent transient
        every part of the system behaves periodically — guarantees
        termination: the composite register state is finite, so a state
        must repeat.  A run started at cycle *c* reports a transient of
        at least *c*, and none before the last scheduled bridge poke
        has ended (see :func:`~repro.skeleton.periodicity.detect_period`).
        """
        return run_to_period(self, max_cycles, self.fire_history,
                             self.accept_history,
                             [self.ambiguous_cycles])[0]
