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
from typing import Dict, List, Mapping, Sequence

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
        self._inputs: Dict[str, Channel] = {}
        self._outputs: Dict[str, List[Channel]] = {p: [] for p in pearl.output_ports}
        self._out_regs: Dict[Channel, Token] = {}
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

    def connect_output(self, port: str, channel: Channel) -> None:
        """Bind *channel* as one sink of pearl output *port* (fan-out ok)."""
        if port not in self._outputs:
            raise StructuralError(
                f"{self.name}: pearl has no output port {port!r} "
                f"(ports: {list(self.pearl.output_ports)})"
            )
        channel.bind_producer(self.name)
        self._outputs[port].append(channel)

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
        return tuple(self._inputs.values())

    @property
    def output_channels(self) -> Mapping[str, Sequence[Channel]]:
        return {p: list(chans) for p, chans in self._outputs.items()}

    # -- simulation --------------------------------------------------------

    def reset(self) -> None:
        initial = self.pearl.reset()
        self._out_regs = {}
        for port, chans in self._outputs.items():
            # Paper, footnote 1: shell outputs are initialized with
            # valid data (relay stations, by contrast, start void).
            token = Token(initial[port])
            for chan in chans:
                self._out_regs[chan] = token
        self.fired_cycles = []
        self.fire_count = 0

    def publish(self) -> None:
        for chans in self._outputs.values():
            for chan in chans:
                chan.drive(self._out_regs[chan])

    def _can_fire(self) -> bool:
        """Combinational firing condition on current (settling) values."""
        for chan in self._inputs.values():
            if not chan.valid.value:
                return False
        for chans in self._outputs.values():
            for chan in chans:
                if self.variant.output_blocked(
                    chan.stop_asserted(), self._out_regs[chan].valid
                ):
                    return False
        return True

    def settle(self) -> None:
        stalled = not self._can_fire()
        for chan in self._inputs.values():
            stop = self.variant.back_pressure(stalled, bool(chan.valid.value))
            if stop:
                # Monotone: only ever raise stops during settle.
                chan.set_stop(True)

    def tick(self) -> None:
        if self._can_fire():
            payloads = {
                port: chan.read().value for port, chan in self._inputs.items()
            }
            produced = self.pearl.step(payloads)
            for port, chans in self._outputs.items():
                token = Token(produced[port])
                for chan in chans:
                    self._out_regs[chan] = token
            self.fired_cycles.append(self.cycle)
            self.fire_count += 1
            telemetry = self._sim.telemetry if self._sim else None
            if telemetry is not None and telemetry.events is not None:
                telemetry.events.emit("token", "fire", self.cycle,
                                      block=self.name)
        else:
            for chans in self._outputs.values():
                for chan in chans:
                    reg = self._out_regs[chan]
                    if reg.valid and chan.stop_asserted():
                        continue  # held under back pressure
                    self._out_regs[chan] = VOID

    # -- checkpoints ---------------------------------------------------------

    def _register_order(self) -> List[Channel]:
        return [chan for chans in self._outputs.values() for chan in chans]

    def capture_state(self):
        # Output registers by value (tokens are immutable), the pearl as
        # a deep copy: its internal state is part of the shell's.
        regs = tuple(self._out_regs[chan] for chan in self._register_order())
        return (regs, capture_history(self.fired_cycles), self.fire_count,
                copy.deepcopy(self.pearl))

    def restore_state(self, state) -> None:
        regs, fired_cycles, self.fire_count, pearl = state
        self._out_regs = dict(zip(self._register_order(), regs))
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
        corrupted = False
        for chan, reg in self._out_regs.items():
            if reg.valid:
                self._out_regs[chan] = Token(mutate(reg.value))
                corrupted = True
        return corrupted

    # -- metrics -------------------------------------------------------------

    def throughput(self, cycles: int) -> float:
        """Fraction of the first *cycles* cycles in which the shell fired."""
        if cycles <= 0:
            return 0.0
        return sum(1 for c in self.fired_cycles if c < cycles) / cycles
