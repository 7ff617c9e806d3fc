"""Fault models: what can go wrong in a LID implementation.

The paper's argument is that protocol-block implementation details
(registered vs. combinational stop, one vs. two registers) decide
whether a system survives adverse conditions.  This module gives those
adverse conditions a vocabulary: composable :class:`FaultSpec` records
naming a *kind* of corruption, a *target* (channel, relay station or
shell), and the cycle window in which it is active.

Wire faults (applied after the settle phase, before monitors sample):

* ``stop-stuck-1`` / ``stop-stuck-0`` — the backward stop wire is stuck
  at a level from ``cycle`` to the end of the run;
* ``stop-glitch`` — the settled stop value is inverted for
  ``duration`` cycles (default one);
* ``delayed-stop`` — the wire presents the *previous* cycle's settled
  stop, modelling the unregistered-stop hazard the paper warns about: a
  designer who registers the stop of a stage without adding the second
  (aux) register makes every upstream learn of back pressure one cycle
  late;
* ``void-glitch`` / ``valid-stuck-0`` — the valid wire is forced low
  (the presented token becomes a void) for one cycle / until the end;
* ``valid-stuck-1`` — a phantom token: valid forced high with payload
  ``value`` (default 0);
* ``payload`` — the payload of the presented token is corrupted
  (``value`` if given, else a deterministic bit flip).

State faults (applied after the clock edge, visible next cycle):

* ``relay-drop`` — a relay-station data register loses its token;
* ``relay-duplicate`` — a full relay station re-captures its presented
  token into the skid slot, emitting it twice;
* ``shell-corrupt`` — a shell's valid output registers flip payload
  bits.

CDC faults (GALS systems only; applied after the clock edge to a
bisynchronous bridge's occupancy counter):

* ``bridge-overflow`` — a phantom write: the write-pointer
  synchronizer resolves a cycle early and the occupancy gains a token
  that was never produced (clamped at the bridge depth);
* ``bridge-underflow`` — a lost token: the read-pointer synchronizer
  resolves a cycle late and the occupancy drops a token that was never
  consumed (clamped at zero).

These target the ``<src>-><dst>.bridge`` names of the lowered IR and
only the skeleton campaign can run them — the token-level LID engine
refuses multi-clock graphs outright.

Fault lists are generated either exhaustively (every kind x target x
cycle of a window — the DAVOS-style systematic fault list) or by
seeded-random sampling of that space; both orders are deterministic, so
a campaign report depends only on ``(topology, variant, faults, cycles,
seed)``.  The space is a :class:`FaultUniverse` that builds a spec only
when indexed, so drawing a sample costs O(samples), not O(space).
"""

from __future__ import annotations

import bisect
import dataclasses
import random
from collections.abc import Sequence as SequenceABC
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import InjectionError
from ..graph.model import SystemGraph
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant

#: Every concrete fault kind, grouped by the injection phase it uses.
WIRE_KINDS = (
    "stop-stuck-1", "stop-stuck-0", "stop-glitch", "delayed-stop",
    "void-glitch", "valid-stuck-0", "valid-stuck-1", "payload",
)
STATE_KINDS = ("relay-drop", "relay-duplicate", "shell-corrupt")
BRIDGE_KINDS = ("bridge-overflow", "bridge-underflow")
ALL_KINDS = WIRE_KINDS + STATE_KINDS + BRIDGE_KINDS

#: CLI-facing fault classes -> concrete kinds.  ``--faults stop,void``
#: selects the stop-wire and void-wire models the paper reasons about.
FAULT_CLASSES: Dict[str, Tuple[str, ...]] = {
    "stop": ("stop-glitch", "stop-stuck-1", "stop-stuck-0"),
    "void": ("void-glitch", "valid-stuck-0"),
    "phantom": ("valid-stuck-1",),
    "payload": ("payload",),
    "drop": ("relay-drop",),
    "duplicate": ("relay-duplicate",),
    "delayed-stop": ("delayed-stop",),
    "shell": ("shell-corrupt",),
    "cdc": BRIDGE_KINDS,
}

#: Kinds that touch only valid/stop wires (no payloads) — the subset a
#: skeleton (data-free) engine can also express at the system boundary.
CONTROL_ONLY_KINDS = frozenset(
    k for k in ALL_KINDS if k.startswith(("stop", "void", "valid",
                                          "delayed"))
)


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One experiment of a campaign: a single localized fault.

    ``duration`` counts active cycles; ``0`` means "until the end of
    the run" (a stuck-at).  ``value`` parameterizes payload faults.
    """

    kind: str
    target: str
    cycle: int
    duration: int = 1
    value: Any = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise InjectionError(
                f"unknown fault kind {self.kind!r} (choices: "
                f"{', '.join(ALL_KINDS)})"
            )
        if self.cycle < 0:
            raise InjectionError(f"fault cycle must be >= 0: {self}")
        if self.duration < 0:
            raise InjectionError(f"fault duration must be >= 0: {self}")

    @property
    def phase(self) -> str:
        """Scheduler injection phase this fault uses.

        Bridge (CDC) faults count as state faults: the occupancy nudge
        lands after the clock edge and is visible next cycle.
        """
        return "wire" if self.kind in WIRE_KINDS else "state"

    @property
    def stuck(self) -> bool:
        """Active until the end of the run?"""
        return self.duration == 0

    def active(self, cycle: int) -> bool:
        """Is the fault active during *cycle*?"""
        if cycle < self.cycle:
            return False
        return self.stuck or cycle < self.cycle + self.duration

    def label(self) -> str:
        """Compact, stable identifier used in reports and event fields."""
        span = "stuck" if self.stuck else (
            f"+{self.duration}" if self.duration != 1 else "")
        return f"{self.kind}@{self.target}@c{self.cycle}{span}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible view (reports are byte-reproducible)."""
        return {
            "kind": self.kind,
            "target": self.target,
            "cycle": self.cycle,
            "duration": self.duration,
            "value": self.value,
        }


def resolve_classes(classes: Sequence[str]) -> Tuple[str, ...]:
    """Expand fault class names (or concrete kinds) into kinds."""
    kinds: List[str] = []
    for name in classes:
        name = name.strip()
        if not name:
            continue
        if name in FAULT_CLASSES:
            kinds.extend(FAULT_CLASSES[name])
        elif name in ALL_KINDS:
            kinds.append(name)
        else:
            raise InjectionError(
                f"unknown fault class {name!r} (classes: "
                f"{', '.join(sorted(FAULT_CLASSES))}; kinds: "
                f"{', '.join(ALL_KINDS)})"
            )
    seen = set()
    unique = []
    for kind in kinds:
        if kind not in seen:
            seen.add(kind)
            unique.append(kind)
    return tuple(unique)


@dataclasses.dataclass(frozen=True)
class TargetSet:
    """Injectable names of an elaborated system, in wiring order."""

    channels: Tuple[str, ...]
    relays: Tuple[str, ...]          # all relay stations (drop)
    full_relays: Tuple[str, ...]     # two-register stations (duplicate)
    shells: Tuple[str, ...]
    bridges: Tuple[str, ...] = ()    # bisynchronous bridges (CDC)


def enumerate_targets(
    graph: SystemGraph,
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> TargetSet:
    """Discover *graph*'s injectable names, once.

    Single-clock graphs elaborate to the token-level system;
    elaboration is deterministic (same graph -> same channel and relay
    names), so the probe system can be thrown away: the names resolve
    identically on every per-experiment elaboration.

    Multi-clock (GALS) graphs cannot elaborate — the LID engine is
    single-clock — so their names come from the skeleton lowering
    instead: boundary hops as channels (the only skeleton-expressible
    wire targets anyway), relay and shell names, and the bridges.  The
    two name spaces intentionally differ (``#N`` channel suffixes vs
    ``[seg]`` hop suffixes); each campaign engine resolves the set it
    generated.
    """
    from ..ir import SINK, SRC, lower

    low = lower(graph)
    if not low.single_clock:
        return TargetSet(
            channels=tuple(
                hop.name for hop in low.hops
                if hop.producer_kind == SRC or hop.consumer_kind == SINK),
            relays=tuple(r.name for r in low.relays),
            full_relays=tuple(
                r.name for r in low.relays if r.spec == "full"),
            shells=tuple(low.nodes[i].name for i in low.shell_ids),
            bridges=low.bridge_names,
        )

    from ..lid.relay import RelayStation

    system = graph.elaborate(variant=variant)
    return TargetSet(
        channels=tuple(chan.name for chan in system.channels),
        relays=tuple(system.relays),
        full_relays=tuple(
            name for name, relay in system.relays.items()
            if isinstance(relay, RelayStation)
        ),
        shells=tuple(system.shells),
    )


def _targets_for(kind: str, targets: TargetSet) -> Tuple[str, ...]:
    if kind in WIRE_KINDS:
        return targets.channels
    if kind in BRIDGE_KINDS:
        return targets.bridges
    if kind == "relay-drop":
        return targets.relays
    if kind == "relay-duplicate":
        return targets.full_relays
    return targets.shells


def generate_faults(
    graph: SystemGraph,
    *,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    classes: Sequence[str] = ("stop", "void"),
    cycles: int = 200,
    window: Optional[Tuple[int, int]] = None,
    exhaustive: bool = False,
    samples: int = 64,
    seed: int = 0,
) -> List[FaultSpec]:
    """Build a deterministic fault list for a campaign.

    The *exhaustive* list enumerates every ``kind x target x cycle`` of
    the window (``window`` defaults to the full run) in a stable order;
    otherwise ``samples`` specs are drawn from that space with
    ``random.Random(seed)``.  Stuck-at kinds get ``duration=0``
    (active to the end of the run), everything else a single cycle.
    """
    kinds = resolve_classes(classes)
    if not kinds:
        raise InjectionError("no fault kinds selected")
    lo, hi = window if window is not None else (0, cycles)
    if not 0 <= lo < hi <= cycles:
        raise InjectionError(
            f"bad cycle window [{lo}, {hi}) for a {cycles}-cycle run")
    targets = enumerate_targets(graph, variant)

    # Stuck-ats and the delayed-stop hazard are structural: once present
    # they stay for the rest of the run.  Glitches, payload corruption
    # and register SEUs are single-cycle events.
    universe = FaultUniverse(
        [(kind, 0 if ("stuck" in kind or kind == "delayed-stop") else 1,
          _targets_for(kind, targets)) for kind in kinds],
        lo, hi)
    if not universe:
        raise InjectionError(
            f"no injectable targets for classes {list(classes)} in "
            f"{graph.name!r}")
    if exhaustive or samples >= len(universe):
        return list(universe)
    # ``random.sample`` draws indices from ``len(universe)`` and *k*
    # alone, so indexing the universe picks exactly the faults a built
    # list would.
    return random.Random(seed).sample(universe, samples)


class FaultUniverse(SequenceABC):
    """The ``kind x target x cycle`` fault space, indexed, not built.

    *blocks* lists ``(kind, duration, targets)`` per kind; the space is
    ordered kind -> target -> cycle over the window ``[lo, hi)``, the
    exhaustive-list order.  Item *i* is built on demand (a bisect over
    the block offsets, then a ``divmod`` into target and cycle), so a
    sampled campaign costs O(samples), not O(universe).
    """

    def __init__(self, blocks: Sequence[Tuple[str, int, Sequence[str]]],
                 lo: int, hi: int):
        self._blocks = [block for block in blocks if block[2]]
        self._lo, self._hi = lo, hi
        self._starts: List[int] = []
        total = 0
        for _kind, _duration, block_targets in self._blocks:
            self._starts.append(total)
            total += len(block_targets) * (hi - lo)
        self._len = total

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> FaultSpec:
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("fault universe index out of range")
        block = bisect.bisect_right(self._starts, index) - 1
        kind, duration, block_targets = self._blocks[block]
        target, offset = divmod(index - self._starts[block],
                                self._hi - self._lo)
        return FaultSpec(kind, block_targets[target], self._lo + offset,
                         duration)

    def __iter__(self) -> Iterator[FaultSpec]:
        # Exhaustive lists walk the blocks directly: no per-item bisect.
        for kind, duration, block_targets in self._blocks:
            for target in block_targets:
                for cycle in range(self._lo, self._hi):
                    yield FaultSpec(kind, target, cycle, duration)
