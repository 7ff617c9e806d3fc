"""The shell: the wrapper that makes a stallable module latency insensitive.

Per the paper, the shell performs three functions:

* **data validation** — each output channel signals whether the datum on
  it has still to be consumed (the ``valid`` wire);
* **back pressure** — when the pearl is stopped the shell asserts
  ``stop`` in the opposite direction of its inputs;
* **clock gating** — a module waiting for new data and/or stopped keeps
  its present state (the pearl's ``step`` simply isn't called).

The Casu/Macchiarulo shell is *simplified*: it does **not** register
incoming stop signals.  Its stall logic and its back-pressure outputs are
combinational, which is why the methodology requires at least one (half
or full) relay station between any two shells — that relay station
provides the memory element that saves the stop (see
:mod:`repro.lid.lint`).

Firing rule (single-rate, as in the LID theory): the shell fires when
**all** inputs carry valid tokens and **no** output is blocked.  Under
the :class:`~repro.lid.variant.ProtocolVariant.CASU` refinement an
output is blocked only when its stop arrives on a *valid* token — stops
on voids are discarded.

Fan-out: an output *port* may feed several channels.  Each channel gets
its own output register; on fire all of them load the same token, and a
channel whose token was consumed turns void while a stopped channel
holds.  This reproduces the multicast behaviour of the RTL shell without
ever duplicating a token.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Mapping, Sequence, Tuple

from ..errors import StructuralError
from ..kernel.component import Component, capture_history, restore_history
from .channel import Channel
from .token import Token, VOID
from .variant import DEFAULT_VARIANT, ProtocolVariant


class Shell(Component):
    """Latency-insensitive wrapper around a pearl.

    Parameters
    ----------
    name:
        Instance name.
    pearl:
        Any object with ``input_ports``/``output_ports`` name sequences,
        a ``reset() -> {port: payload}`` method returning the initial
        (valid) output payloads, and a ``step({port: payload}) ->
        {port: payload}`` method implementing one synchronous transition.
    variant:
        Stop-handling discipline (defaults to the paper's refinement).
    """

    def __init__(self, name: str, pearl, variant: ProtocolVariant = DEFAULT_VARIANT):
        super().__init__(name)
        self.pearl = pearl
        self.variant = variant
        #: The variant's one decision, read once: does a stop on a void
        #: output register stall the shell, and does a stalled shell
        #: stop a void input?  (Neither, when stops on voids are
        #: discarded.)
        self._discards_void_stops = variant.discards_void_stops
        self._inputs: Dict[str, Channel] = {}
        self._outputs: Dict[str, List[Channel]] = {p: [] for p in pearl.output_ports}
        # The wiring as the per-cycle methods walk it, refreshed by
        # every connect: input ports and channels, and every output
        # channel with the port it belongs to.
        self._in_ports: Tuple[str, ...] = ()
        self._in_chans: Tuple[Channel, ...] = ()
        self._out_chans: Tuple[Channel, ...] = ()
        self._out_ports: Tuple[str, ...] = ()
        #: One output register per ``_out_chans`` entry.
        self._out_regs: List[Token] = []
        self.fired_cycles: List[int] = []
        self.fire_count = 0

    # -- wiring ------------------------------------------------------------

    def connect_input(self, port: str, channel: Channel) -> None:
        """Bind *channel* as the source of pearl input *port*."""
        if port not in self.pearl.input_ports:
            raise StructuralError(
                f"{self.name}: pearl has no input port {port!r} "
                f"(ports: {list(self.pearl.input_ports)})"
            )
        if port in self._inputs:
            raise StructuralError(f"{self.name}: input {port!r} already connected")
        channel.bind_consumer(self.name)
        self._inputs[port] = channel
        self._in_ports = tuple(self._inputs)
        self._in_chans = tuple(self._inputs.values())

    def connect_output(self, port: str, channel: Channel) -> None:
        """Bind *channel* as one sink of pearl output *port* (fan-out ok)."""
        if port not in self._outputs:
            raise StructuralError(
                f"{self.name}: pearl has no output port {port!r} "
                f"(ports: {list(self.pearl.output_ports)})"
            )
        channel.bind_producer(self.name)
        self._outputs[port].append(channel)
        self._out_chans = tuple(chan for chans in self._outputs.values()
                                for chan in chans)
        self._out_ports = tuple(name for name, chans in self._outputs.items()
                                for _chan in chans)

    def check_wiring(self) -> None:
        """Raise :class:`StructuralError` if any pearl port is unbound."""
        missing_in = [p for p in self.pearl.input_ports if p not in self._inputs]
        missing_out = [p for p, chans in self._outputs.items() if not chans]
        if missing_in or missing_out:
            raise StructuralError(
                f"{self.name}: unconnected ports "
                f"(inputs {missing_in}, outputs {missing_out})"
            )

    @property
    def input_channels(self) -> Mapping[str, Channel]:
        return dict(self._inputs)

    def combinational_stop_inputs(self) -> Sequence[Channel]:
        """Input channels whose stop :meth:`settle` drives from the
        output stops within the cycle: all of them, because the
        simplified shell does not register stops (the structural lint
        and the settle order read this)."""
        return self._in_chans

    @property
    def output_channels(self) -> Mapping[str, Sequence[Channel]]:
        return {p: list(chans) for p, chans in self._outputs.items()}

    # -- simulation --------------------------------------------------------

    def reset(self) -> None:
        initial = self.pearl.reset()
        # Paper, footnote 1: shell outputs are initialized with valid
        # data (relay stations, by contrast, start void).
        self._load(initial)
        self.fired_cycles = []
        self.fire_count = 0

    def _load(self, produced: Mapping[str, object]) -> None:
        """Load one token per output port into each of its registers."""
        tokens = {port: Token(produced[port]) for port in self._outputs}
        self._out_regs = [tokens[port] for port in self._out_ports]

    def publish(self) -> None:
        for chan, reg in zip(self._out_chans, self._out_regs):
            chan.drive(reg)

    def _can_fire(self) -> bool:
        """Combinational firing condition on current (settling) values."""
        for chan in self._in_chans:
            if not chan.token.valid:
                return False
        discards = self._discards_void_stops
        for chan, reg in zip(self._out_chans, self._out_regs):
            if chan.stop.value and (reg.valid or not discards):
                return False
        return True

    def settle(self) -> None:
        if self._can_fire():
            return
        discards = self._discards_void_stops
        for chan in self._in_chans:
            if chan.token.valid or not discards:
                # Monotone: only ever raise stops during settle.
                chan.stop.set(True)

    def tick(self) -> None:
        if self._can_fire():
            inputs = {}
            for port, chan in zip(self._in_ports, self._in_chans):
                inputs[port] = chan.token.value
            self._load(self.pearl.step(inputs))
            sim = self._sim
            self.fired_cycles.append(sim.cycle)
            self.fire_count += 1
            telemetry = sim.telemetry
            if telemetry is not None and telemetry.events is not None:
                telemetry.events.emit("token", "fire", sim.cycle,
                                      block=self.name)
            return
        regs = self._out_regs
        index = 0
        for chan in self._out_chans:
            if not (regs[index].valid and chan.stop.value):
                regs[index] = VOID  # else held under back pressure
            index += 1

    # -- checkpoints ---------------------------------------------------------

    def capture_state(self):
        # Output registers by value (tokens are immutable), the pearl as
        # a deep copy: its internal state is part of the shell's.
        return (tuple(self._out_regs), capture_history(self.fired_cycles),
                self.fire_count, copy.deepcopy(self.pearl))

    def restore_state(self, state) -> None:
        regs, fired_cycles, self.fire_count, pearl = state
        self._out_regs = list(regs)
        self.fired_cycles = restore_history(fired_cycles)
        self.pearl = copy.deepcopy(pearl)

    # -- fault injection -----------------------------------------------------

    def inject_corrupt_outputs(self, mutate) -> bool:
        """Corrupt every valid output register through *mutate(value)*.

        Models an SEU in the shell's output flip-flops: the payload bits
        flip but the validity bit survives, so downstream still consumes
        the (now wrong) token.  Returns whether any register held a
        valid token to corrupt.  Legal only from a scheduler
        *state*-injection hook (see :mod:`repro.inject`).
        """
        regs = self._out_regs
        corrupted = False
        for index, reg in enumerate(regs):
            if reg.valid:
                regs[index] = Token(mutate(reg.value))
                corrupted = True
        return corrupted

    # -- metrics -------------------------------------------------------------

    def throughput(self, cycles: int) -> float:
        """Fraction of the first *cycles* cycles in which the shell fired."""
        if cycles <= 0:
            return 0.0
        return sum(1 for c in self.fired_cycles if c < cycles) / cycles
