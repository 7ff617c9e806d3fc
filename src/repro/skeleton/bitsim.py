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

The step itself is compiled: :func:`repro.skeleton.codegen.plan_for`
emits straight-line code over plane words for each topology (see
:func:`~repro.skeleton.codegen.planes.generate_plane_source`), and
:meth:`BitplaneSkeletonSim.step`/:meth:`~BitplaneSkeletonSim.run` call
that plan.  This class owns the state layout and the runtime data the
plan reads on every call: batch width and mask, script tables, source
ticks and holds, bridge pokes, the per-phase enable table and the
cycle count.

Bit-exactness against :class:`~repro.skeleton.sim.SkeletonSim` is the
contract: per plane, the compiled step evaluates the same monotone
equations in the same order as the scalar engine (a bitwise
Gauss-Seidel pass is the scalar pass applied to all planes at once, and
chaotic iteration of a monotone system from the same start converges to
the same least/greatest fixpoint), so registers, wires and counters
match cycle by cycle.  The differential suite in
``tests/skeleton/test_backend_conformance.py`` enforces it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..graph.model import SystemGraph
from ..ir import LoweredSystem, lower, pack_planes
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .codegen import plan_for
from .periodicity import SkeletonResult, run_to_period

PatternMap = Mapping[str, Sequence[bool]]

__all__ = ["BitplaneSkeletonSim", "_VerticalCounter", "check_instance"]


class _VerticalCounter:
    """Bit-sliced per-plane counter (SBFI "vertical counter").

    ``slices[i]`` holds bit *i* of every plane's count.  The compiled
    step adds a word (one increment for each plane whose bit is set)
    with an inlined ripple carry across the slices — amortized O(1)
    integer ops per add (the classic binary-counter argument), never a
    per-plane loop.  It keeps the two low slices in locals for a whole
    run, so a counter always has at least two.  A one-plane plan
    counts in a plain int instead and ripples the total into plane 0
    once per call.
    """

    __slots__ = ("slices",)

    def __init__(self):
        self.slices: List[int] = [0, 0]

    def value(self, plane: int) -> int:
        total = 0
        for i, word in enumerate(self.slices):
            if (word >> plane) & 1:
                total += 1 << i
        return total

    def values(self, planes: int) -> List[int]:
        """``[value(p) for p in range(planes)]``, walking each slice's
        bits once (lowest plane first) instead of shifting every slice
        once per plane."""
        totals = [0] * planes
        mask = (1 << planes) - 1
        for i, word in enumerate(self.slices):
            word &= mask
            if word:
                weight = 1 << i
                for plane, bit in enumerate(bin(word)[:1:-1]):
                    if bit == "1":
                        totals[plane] += weight
        return totals


def _sliced_sub(high: Sequence[int], low: Sequence[int]) -> List[int]:
    """Per plane ``high - low`` of two bit-sliced counts (``high >= low``
    in every plane), rippling a borrow word across the slices."""
    out = []
    borrow = 0
    for i, word in enumerate(high):
        other = low[i] if i < len(low) else 0
        diff = word ^ other
        out.append(diff ^ borrow)
        borrow = (~word & other) | (~diff & borrow)
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _sliced_add_scaled(slices: List[int], delta: Sequence[int],
                       times: int) -> None:
    """Add ``times`` x *delta* (bit-sliced) into *slices* in place.

    Shift-and-add: for every set bit *j* of *times*, *delta* shifted up
    by *j* slices is added with a rippled carry word.  The slice list
    keeps the form the compiled step leaves (at least two slices, no
    zero slice on top of those).
    """
    shift = 0
    while times:
        if times & 1:
            slices.extend([0] * (shift - len(slices)))
            carry = 0
            i = shift
            for word in delta:
                if i == len(slices):
                    slices.append(0)
                old = slices[i]
                slices[i] = old ^ word ^ carry
                carry = (old & word) | (carry & (old ^ word))
                i += 1
            while carry:
                if i == len(slices):
                    slices.append(0)
                old = slices[i]
                slices[i] = old ^ carry
                carry &= old
                i += 1
        times >>= 1
        shift += 1
    while len(slices) > 2 and not slices[-1]:
        slices.pop()


#: Byte value -> 1 if truthy, else 0 (script images, see _image).
_TRUTHY = bytes([0] + [1] * 255)
#: A run of set cycles in a script image.
_RUNS = re.compile(rb"\x01+")


def _truth(script: Tuple) -> bytes:
    """*script*'s truthiness, one byte per entry (1 when truthy)."""
    try:
        return bytes(script).translate(_TRUTHY)
    except (TypeError, ValueError):  # entries that are not small ints
        return bytes(map(bool, script))


def _image(script: Tuple, span: int) -> int:
    """*script*'s truthiness repeated over *span* cycles, one byte per
    cycle, read as a big-endian int."""
    return int.from_bytes(_truth(script) * (span // len(script)), "big")


def _sink_schedule(groups: Sequence[Tuple[Tuple, int]], span: int,
                   mask: int) -> Tuple[List[int], List[int]]:
    """One stop word per cycle of *span* from (script, planes) groups,
    and the cycles whose word differs from the one before (cycle 0
    compares with the last word: the schedule repeats).

    The most-shared script is expanded once, for every plane in
    *mask*.  Each other distinct script adds only the runs of cycles
    where it differs from that one, found at C speed: XOR the two
    images and match the runs of set bytes.  A run flips its group's
    planes at both ends of an XOR difference array, and one prefix XOR
    folds the array into the words, so a sink costs O(span + runs)
    Python steps, not one per cycle of every distinct script.  A word
    changes only at either end of a run, so the change list costs
    O(runs) too.
    """
    base = max(groups, key=lambda group: group[1].bit_count())[0]
    base_image = _image(base, span)
    flips = [0] * (span + 1)
    ends = set()
    for script, planes in groups:
        if script is base:
            diff, planes = base_image, mask
        else:
            diff = _image(script, span) ^ base_image
        for run in _RUNS.finditer(diff.to_bytes(span, "big")):
            flips[run.start()] ^= planes
            flips[run.end()] ^= planes
            ends.update(run.span())
    flips.pop()
    words = list(itertools.accumulate(flips, operator.xor))
    changes = sorted(c for c in ends if 0 < c < span and flips[c])
    if words[0] != words[-1]:
        changes.insert(0, 0)
    return words, changes


def _tail_start(script: Tuple) -> int:
    """Index from which *script*'s truthiness stays constant to its end."""
    image = _truth(script)
    return len(image.rstrip(image[-1:]))


def check_instance(instance: int, batch: int) -> None:
    """Raise ``IndexError`` unless ``0 <= instance < batch``.

    Per-instance accessors never wrap a negative index around or read
    a plane past the batch: both would return another instance's data.
    """
    if not 0 <= instance < batch:
        raise IndexError(
            f"instance {instance} out of range for batch {batch}")


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
        # detect_ambiguity, the telemetry flags and the counter form
        # (plain ints for one plane) are baked into the plan here;
        # changing them afterwards has no effect on step().
        self._plan = plan_for(
            self.lowered, variant, one_plane=self.batch == 1,
            fixpoint=fixpoint, detect_ambiguity=detect_ambiguity,
            metrics_on=self._metrics_on, events_on=self._events_on)
        self.reset()

    # -- construction -------------------------------------------------------

    def _build_tables(self) -> None:
        low = self.lowered
        self._mask = (1 << self.batch) - 1
        self._n_regs = len(low.shell_regs)
        self._n_rs = len(low.relays)
        self._n_hops = len(low.hops)
        self.bridge_names = list(low.bridge_names)
        self.bridge_depths = [b.depth for b in low.bridges]

    def _build_schedules(self) -> None:
        """Per-phase enable table, indexed by ``cycle % hyperperiod``.

        One word per clock domain: all planes when the domain ticks on
        that base cycle, none otherwise.  The compiled step gates every
        element on its domain's word: an idle source presents void and
        freezes its phase, an idle sink asserts stop, an idle shell
        cannot fire and holds its registers, an idle relay holds its
        registers and each bridge port moves only on its own domain's
        ticks.  Single-clock systems never read it.
        """
        low = self.lowered
        mask = self._mask
        self._hyperperiod = low.hyperperiod
        self._phases = [
            tuple(mask if d.schedule[c] else 0 for d in low.domains)
            for c in range(self._hyperperiod)]

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
        # schedule to one plane word per cycle over the lcm span, once
        # (see _sink_schedule).  When the lcm is unreasonable the step
        # packs the word each cycle from the (script, planes) groups
        # instead.
        self._sink_sched: List[Optional[List[int]]] = []
        self._sink_changes: List[Optional[List[int]]] = []
        self._sink_groups: List[List[Tuple[Tuple, int]]] = []
        for planes in self._sink_pats:
            masks: Dict[Tuple, int] = {}
            for p, pattern in enumerate(planes):
                masks[pattern] = masks.get(pattern, 0) | (1 << p)
            groups = list(masks.items())
            self._sink_groups.append(groups)
            span = math.lcm(*(len(p) for p in masks))
            words, changes = (_sink_schedule(groups, span, self._mask)
                              if span <= 4096 else (None, None))
            self._sink_sched.append(words)
            self._sink_changes.append(changes)

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
        default every plane.  The W register and bridge words are
        joined once into one integer with stride B (the batch width):
        word *i* fills bits ``[i*B, (i+1)*B)`` (every state word stays
        within the batch mask, so no two overlap).  Plane *p*'s
        register key is then ``(joined >> p) & stride_mask``, whose bit
        ``i*B`` is bit *p* of word *i*: one shift and one mask per
        plane, and the key stays exact.  Source phases enter only for
        sources with a script longer than one step; the others never
        move.
        """
        width = self.batch
        joined = 0
        for words in (self.shell_reg, self.rs_main, self.rs_aux,
                      self.rs_stop_reg, *self.bridge_ge):
            for word in words:
                joined = (joined << width) | word
        stride_mask = self._stride_mask
        cycle = self.cycle
        key_mod = self._key_mod
        moving = [(self._src_ticks[s], self._src_holds[s],
                   self._src_pats[s])
                  for s, static in enumerate(self._src_static)
                  if not static]
        return [((joined >> p) & stride_mask,
                 tuple((ticks - holds[p]) % len(pats[p])
                       for ticks, holds, pats in moving),
                 cycle % key_mod[p])
                for p in (range(width) if planes is None else planes)]

    @functools.cached_property
    def _stride_mask(self) -> int:
        """One set bit per state word, B apart (see state_keys)."""
        words = self._n_regs + 3 * self._n_rs + sum(self.bridge_depths)
        return sum(1 << (i * self.batch) for i in range(words))

    @property
    def quiet_from(self) -> List[int]:
        """Per plane, the first cycle after its last scheduled bridge
        poke (0 when it has none)."""
        quiet = [0] * self.batch
        for _b, bit, _lo, hi, _d in self._bridge_pokes:
            plane = bit.bit_length() - 1
            quiet[plane] = max(quiet[plane], hi)
        return quiet

    def poke_bridge(self, instance: int, bridge, cycle: int,
                    delta: int, duration: int = 1) -> None:
        """Schedule a bridge occupancy perturbation for one plane.

        Mirrors :meth:`SkeletonSim.poke_bridge` with an explicit
        *instance* (plane): on each cycle in ``[cycle, cycle +
        duration)`` the bridge's occupancy in that plane is nudged by
        *delta* after the normal update, clamped to ``[0, depth]``.
        Pokes apply in registration order.
        """
        check_instance(instance, self.batch)
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

    # -- stepping -------------------------------------------------------------

    def step(self) -> Tuple[List[int], List[int]]:
        """Advance all planes one cycle; returns (fire, accept) words."""
        return self._plan.cycle(self)

    def run(self, cycles: int) -> None:
        """Step all planes *cycles* cycles (none when ``cycles <= 0``).

        The periodic tail of the call is not stepped: once every input
        stays constant until the call ends and the state repeats, the
        whole periods left are added to the counters, source phases and
        histories instead (see "Periodic tail" in docs/bitsim.md).
        Every observable equals stepping each cycle.
        """
        if cycles <= 0:
            return
        end = self.cycle + cycles
        if self._periodic_tail and self._reach_quiet(end):
            self._skip_periods(end)
        if end > self.cycle:
            self._plan.run_cycles(self, end - self.cycle)

    @functools.cached_property
    def _periodic_tail(self) -> bool:
        """Whether run() may skip a periodic tail.  An event stream, the
        ambiguity probe and a sink stop word packed per cycle need
        every cycle stepped."""
        return not (self._events_on or None in self._sink_sched
                    or (self.detect_ambiguity
                        and self.lowered.may_be_ambiguous))

    @functools.cached_property
    def _src_tails(self) -> List[List[list]]:
        """Per source, its moving planes as ``[plane, script, start of
        the script's constant tail]``; a start is found on first use."""
        return [[[p, pattern, None] for p, pattern in moving]
                for _fixed, moving in self._src_words]

    def _quiet_from(self, end: int) -> Optional[int]:
        """Earliest cycle from which every input can stay constant until
        *end*, or ``None`` when that leaves no room to skip a period.

        A skip needs a repeated key, one stepped period and one period
        to skip, each a multiple of the hyperperiod.  A script that may
        wrap before *end* never goes quiet.  Sink stop words and bridge
        pokes are known per cycle; a source plane presents its script
        at its phase, which moves at most one step per cycle, so the
        bound is exact for them and a lower bound for the sources.
        """
        now = self.cycle
        latest = end - 3 * self._hyperperiod
        quiet = now
        last = end - 1
        for words, changes in zip(self._sink_sched, self._sink_changes):
            if not changes:
                continue
            span = len(words)
            if span < end - now:  # the schedule repeats: changes recur
                return None
            at = last % span
            i = bisect.bisect_right(changes, at) - 1
            quiet = max(quiet, last - at + changes[i] if i >= 0
                        else last - at - span + changes[-1])
        for _b, _bit, lo, hi, _delta in self._bridge_pokes:
            if lo < end and hi > now:
                # Quiet once it ends, or from its start when it lasts
                # to the end of the call.
                quiet = max(quiet, lo if hi >= end else hi)
        if quiet > latest:
            return None
        for ticks, holds, tails in zip(self._src_ticks, self._src_holds,
                                       self._src_tails):
            for tail in tails:
                plane, script, start = tail
                length = len(script)
                phase = (ticks - holds[plane]) % length
                if phase + end - now > length:
                    return None
                if start is None:
                    start = tail[2] = _tail_start(script)
                quiet = max(quiet, now + start - phase)
                if quiet > latest:
                    return None
        return quiet

    def _reach_quiet(self, end: int) -> bool:
        """Step in bulk until every input stays constant from the current
        cycle to *end*; False when it will not with a period to skip.

        A held source phase lags its bound, so the test repeats after
        each bulk step; when the lag stops shrinking (a source held
        for good) the caller steps the rest.
        """
        gap = None
        while True:
            quiet = self._quiet_from(end)
            if quiet is None:
                return False
            if quiet == self.cycle:
                return True
            if gap is not None and quiet - self.cycle >= gap:
                return False
            gap = quiet - self.cycle
            self._plan.run_cycles(self, gap)

    def _skip_periods(self, end: int) -> None:
        """Step until the state repeats, then skip the whole periods left
        before *end*; every input is constant until *end*.

        The key is every register and bridge word with ``cycle %
        hyperperiod``, so a period is a multiple of the hyperperiod;
        the search stops once two of them no longer fit.  One more
        period P is stepped to measure each counter's, tick's and
        hold's increment, which is then added ``k - 1`` more times for
        the ``k`` whole periods that were left; the histories repeat
        their last P rows as often.
        """
        seen: Dict[Tuple, int] = {}
        hyperperiod = self._hyperperiod
        step = self._plan.cycle
        while self.cycle + 2 * hyperperiod <= end:
            key = (*self.shell_reg, *self.rs_main, *self.rs_aux,
                   *self.rs_stop_reg,
                   *itertools.chain.from_iterable(self.bridge_ge),
                   self.cycle % hyperperiod)
            first = seen.setdefault(key, self.cycle)
            if first != self.cycle:
                break
            step(self)
        else:
            return
        period = self.cycle - first
        skipped = (end - self.cycle) // period - 1
        if skipped < 1:
            return
        counters = self._counters()
        before = [counter.slices[:] for counter in counters]
        ticks = self._src_ticks[:]
        holds = [planes[:] for planes in self._src_holds]
        self._plan.run_cycles(self, period)
        for counter, then in zip(counters, before):
            delta = _sliced_sub(counter.slices, then)
            if any(delta):
                _sliced_add_scaled(counter.slices, delta, skipped)
        self._src_ticks[:] = [now + skipped * (now - then)
                              for now, then in zip(self._src_ticks, ticks)]
        for planes, then_planes in zip(self._src_holds, holds):
            planes[:] = [now + skipped * (now - then)
                         for now, then in zip(planes, then_planes)]
        for history in (self._fire_history, self._accept_history):
            history.extend(history[-period:] * skipped)
        self.cycle += skipped * period

    def _counters(self) -> List[_VerticalCounter]:
        """Every counter the compiled step adds to."""
        counters = [*self.shell_fired, *self.sink_accepted,
                    self.stop_assertions, self.stops_on_voids,
                    self.internal_stops_on_voids]
        if self._metrics_on:
            counters += self.hop_stall_cycles
            for levels in (*self.rs_occupancy_counts,
                           *self.bridge_occupancy_counts):
                counters += levels
        return counters

    def run_to_period(self, max_cycles: int = 10_000) \
            -> List[SkeletonResult]:
        """Simulate until every plane is periodic; one result each
        (see :func:`~repro.skeleton.periodicity.detect_period`)."""
        return run_to_period(self, max_cycles, self._fire_history,
                             self._accept_history, self.ambiguous_cycles)

    # -- per-plane extraction ------------------------------------------------

    def fire_count(self, shell: int, plane: int) -> int:
        check_instance(plane, self.batch)
        return self.shell_fired[shell].value(plane)

    def accept_count(self, sink: int, plane: int) -> int:
        check_instance(plane, self.batch)
        return self.sink_accepted[sink].value(plane)

    def accept_history(self, plane: int) -> List[Tuple[bool, ...]]:
        """Per cycle, each sink's acceptance bit in *plane*."""
        check_instance(plane, self.batch)
        return [tuple(bool((word >> plane) & 1) for word in words)
                for words in self._accept_history]

    # -- telemetry ----------------------------------------------------------

    def metrics_snapshot(self, instance: int = 0) -> Dict[str, Dict]:
        """Canonical metrics snapshot for one plane.

        Bit-identical to :meth:`SkeletonSim.metrics_snapshot` with the
        same scripts (the conformance suite asserts this).
        """
        from ..obs import MetricsRegistry

        check_instance(instance, self.batch)
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
