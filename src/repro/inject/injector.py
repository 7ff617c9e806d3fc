"""Injector runtime: applies one :class:`FaultSpec` to a live system.

A :class:`FaultInjector` binds a spec to the concrete channel / relay /
shell of an elaborated :class:`~repro.lid.system.LidSystem` and
registers itself with the simulator's injection phases
(:meth:`~repro.kernel.scheduler.Simulator.add_injection_hook`):

* wire faults run after the settle phase, so monitors and the edge
  phase observe the faulted wires;
* state faults run after the edge phase, corrupting registers as they
  latch.

Whether a wire fault changes anything in a given cycle is decided in
one place, :meth:`FaultInjector.effect`: the wire hook forces what it
returns, and a campaign's golden trunk asks it for the first cycle each
fault bites (see :mod:`repro.inject.campaign`).

When the system carries :class:`~repro.obs.Telemetry`, the injector
emits an ``inject/arm`` event when attached and an ``inject/fire``
event on every cycle it actually perturbs state, so an exported trace
shows the fault alongside the protocol events it provokes.
"""

from __future__ import annotations

from ..errors import InjectionError
from ..kernel.scheduler import Simulator
from .faults import FaultSpec


def default_corruptor(value):
    """Deterministic payload corruption: flip bit 0 of ints, tag others."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ 1
    return ("corrupt", value)


#: :meth:`FaultInjector.effect` result for a fault that would change
#: nothing on the wires this cycle.
UNCHANGED = object()


class FaultInjector:
    """Applies a single fault spec to one elaborated LID system.

    *prev_stop* primes ``delayed-stop``: the settled stop of the cycle
    before the one the run resumes at (a run from reset starts low and
    samples the wire itself from ``spec.cycle - 1`` on).
    """

    def __init__(self, spec: FaultSpec, system, prev_stop: bool = False):
        self.spec = spec
        self.system = system
        self.fired_cycles = []
        #: ``delayed-stop`` only: the settled stop one cycle ago.
        self.prev_stop = prev_stop
        self._channel = None
        self._relay = None
        self._shell = None
        self._resolve()

    # -- wiring ------------------------------------------------------------

    def _resolve(self) -> None:
        spec = self.spec
        if spec.phase == "wire":
            for chan in self.system.channels:
                if chan.name == spec.target:
                    self._channel = chan
                    return
            raise InjectionError(
                f"no channel named {spec.target!r} (channels: "
                f"{[c.name for c in self.system.channels]})"
            )
        if spec.kind in ("relay-drop", "relay-duplicate"):
            relay = self.system.relays.get(spec.target)
            if relay is None:
                raise InjectionError(
                    f"no relay station named {spec.target!r} (relays: "
                    f"{list(self.system.relays)})"
                )
            if spec.kind == "relay-duplicate" and relay.registers < 2:
                raise InjectionError(
                    f"{spec.target!r} is a one-register station; it "
                    f"cannot express a duplicate fault"
                )
            self._relay = relay
            return
        shell = self.system.shells.get(spec.target)
        if shell is None:
            raise InjectionError(
                f"no shell named {spec.target!r} (shells: "
                f"{list(self.system.shells)})"
            )
        self._shell = shell

    def attach(self) -> "FaultInjector":
        """Register with the simulator's injection phase; emit arm."""
        sim = self.system.sim
        sim.add_injection_hook(self._hook(), phase=self.spec.phase)
        self._emit("arm", sim.cycle)
        return self

    def detach(self) -> None:
        """Unregister from the simulator, which can then run another
        experiment without this fault."""
        self.system.sim.remove_injection_hook(self._hook(),
                                              phase=self.spec.phase)

    def _hook(self):
        return self._wire_hook if self.spec.phase == "wire" \
            else self._state_hook

    # -- per-cycle ---------------------------------------------------------

    def effect(self, cycle: int):
        """The one fire predicate of a wire fault.

        Given the target channel's settled wires at *cycle*, return the
        value the fault forces there, or :data:`UNCHANGED` when it is
        inactive or forcing would change nothing (an already-low stop,
        a void under a void glitch, a payload the corruption
        reproduces).  The wire hook forces exactly this value, and a
        monitored golden trunk asks the same question to find the
        first cycle a fault bites, so the two cannot disagree.
        """
        spec = self.spec
        if not spec.active(cycle):
            return UNCHANGED
        chan = self._channel
        kind = spec.kind
        if kind in ("stop-stuck-1", "stop-stuck-0"):
            level = kind.endswith("1")
            return level if bool(chan.stop.value) != level else UNCHANGED
        if kind == "stop-glitch":
            return not chan.stop.value
        if kind == "delayed-stop":
            return (self.prev_stop
                    if bool(chan.stop.value) != self.prev_stop
                    else UNCHANGED)
        if kind in ("void-glitch", "valid-stuck-0"):
            return False if chan.valid.value else UNCHANGED
        if kind == "valid-stuck-1":
            if chan.valid.value:
                return UNCHANGED
            return 0 if spec.value is None else spec.value
        # payload
        if not chan.valid.value:
            return UNCHANGED
        before = chan.data.value
        after = (spec.value if spec.value is not None
                 else default_corruptor(before))
        return after if after != before else UNCHANGED

    def sample(self, cycle: int):
        """:meth:`effect` at *cycle*, then remember the settled stop
        for ``delayed-stop`` (which presents it one cycle later)."""
        forced = self.effect(cycle)
        if self.spec.kind == "delayed-stop" and cycle + 1 >= self.spec.cycle:
            self.prev_stop = bool(self._channel.stop.value)
        return forced

    def _wire_hook(self, sim: Simulator) -> None:
        cycle = sim.cycle
        forced = self.sample(cycle)
        if forced is UNCHANGED:
            return
        kind = self.spec.kind
        if kind.startswith(("stop", "delayed")):
            self._channel.force_stop(forced)
            self._fired(cycle, forced=forced)
        elif kind == "payload":
            self._channel.force_payload(forced)
            self._fired(cycle, payload=repr(forced))
        elif kind == "valid-stuck-1":
            self._channel.force_valid(True, data=forced)
            self._fired(cycle, forced=True)
        else:
            self._channel.force_valid(False)
            self._fired(cycle, forced=False)

    def _state_hook(self, sim: Simulator) -> None:
        spec = self.spec
        cycle = sim.cycle
        if not spec.active(cycle):
            return
        if spec.kind == "relay-drop":
            if self._relay.inject_drop():
                self._fired(cycle)
        elif spec.kind == "relay-duplicate":
            if self._relay.inject_duplicate():
                self._fired(cycle)
        elif spec.kind == "shell-corrupt":
            mutate = (spec.value if callable(spec.value)
                      else default_corruptor)
            if self._shell.inject_corrupt_outputs(mutate):
                self._fired(cycle)

    # -- accounting --------------------------------------------------------

    @property
    def fired(self) -> bool:
        """Did the fault perturb anything at all?

        A fault that never changed a wire or register (e.g. forcing an
        already-low stop) is masked by construction.
        """
        return bool(self.fired_cycles)

    def _fired(self, cycle: int, **fields) -> None:
        self.fired_cycles.append(cycle)
        self._emit("fire", cycle, **fields)

    def _emit(self, name: str, cycle: int, **fields) -> None:
        telemetry = self.system.telemetry
        if telemetry is None or telemetry.events is None:
            return
        telemetry.events.emit(
            "inject", name, cycle, kind=self.spec.kind,
            target=self.spec.target, at=self.spec.cycle,
            duration=self.spec.duration, **fields)
