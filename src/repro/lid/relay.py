"""Relay stations: pipelined channel repeaters.

Relay stations are the paper's answer to multi-cycle wires: internally
pipelined blocks inserted on long channels that comply with the protocol
(*produce outputs in order, skip no valid output, hold their output on
asserted stop*).  Two flavours are implemented:

**Full relay station** (:class:`RelayStation`) — two data registers
(``main`` presented at the output, ``aux`` as the skid slot) and a
*registered* stop output.  When a downstream stop is first seen there is
always one token legitimately in flight (the upstream only learns of the
stop one cycle later, through the registered stop); the ``aux`` register
absorbs exactly that token.  This is the minimum-memory argument the
paper makes: a registered stop requires two registers.

**Half relay station** (:class:`HalfRelayStation`) — a single data
register and a *combinationally transparent* stop
(``stop_out = stop_in AND occupied``; under the original Carloni variant
simply ``stop_out = stop_in``).  It is safe and full-throughput, but it
extends the combinational stop chain, so it cannot break stop cycles —
which is why the paper finds potential deadlock exactly when half relay
stations sit in loops.  The ``registered_stop=True`` ablation shows the
alternative: registering the stop of a one-register stage is safe only
if the station advertises stop whenever occupied, halving its peak
throughput (bench EXP-T6/ablation; see DESIGN.md §7).

Both flavours reset with **void** contents (paper: relay stations are
initialized with non-valid outputs that drain toward the primary
outputs during the transient).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import StructuralError
from ..kernel.component import Component, capture_history, restore_history
from .channel import Channel
from .token import Token, VOID
from .variant import DEFAULT_VARIANT, ProtocolVariant


class _RelayBase(Component):
    """Shared wiring and accounting for relay station flavours."""

    def __init__(self, name: str, variant: ProtocolVariant = DEFAULT_VARIANT):
        super().__init__(name)
        self.variant = variant
        #: The variant's one decision, read once (see
        #: :attr:`ProtocolVariant.discards_void_stops`).
        self._discards_void_stops = variant.discards_void_stops
        self.input: Optional[Channel] = None
        self.output: Optional[Channel] = None
        self.valid_out_cycles: List[int] = []

    def connect(self, input_channel: Channel, output_channel: Channel) -> None:
        """Wire the station between *input_channel* and *output_channel*."""
        if self.input is not None or self.output is not None:
            raise StructuralError(f"{self.name}: already connected")
        input_channel.bind_consumer(self.name)
        output_channel.bind_producer(self.name)
        self.input = input_channel
        self.output = output_channel

    def check_wiring(self) -> None:
        if self.input is None or self.output is None:
            raise StructuralError(f"{self.name}: relay station not connected")

    def throughput(self, cycles: int) -> float:
        """Fraction of the first *cycles* cycles with a valid output."""
        if cycles <= 0:
            return 0.0
        return sum(1 for c in self.valid_out_cycles if c < cycles) / cycles

    def _trace_occupancy(self, events, before: int) -> None:
        """Emit a ``relay/occupancy`` event when the fill level moved
        (called only when an event stream is attached)."""
        occupancy = self.occupancy
        if occupancy != before:
            events.emit("relay", "occupancy", self._sim.cycle,
                        relay=self.name, occupancy=occupancy)

    @property
    def registers(self) -> int:
        """Number of data registers (2 for full, 1 for half)."""
        raise NotImplementedError

    # -- fault injection ---------------------------------------------------

    def inject_drop(self) -> bool:
        """Erase one buffered token (SEU: a data register loses its
        validity bit).  Returns whether a token was actually lost.

        Legal only from a scheduler *state*-injection hook (after the
        edge phase); see :mod:`repro.inject`.
        """
        raise NotImplementedError

    def inject_duplicate(self) -> bool:
        """Re-arm the station so the current token is emitted twice.

        Returns whether a duplicate was actually created.  Only the
        two-register full station can express this fault; the half
        station raises :class:`~repro.errors.InjectionError`.
        """
        from ..errors import InjectionError

        raise InjectionError(
            f"{self.name}: a one-register station has no slot to "
            f"duplicate into"
        )


class RelayStation(_RelayBase):
    """Full relay station: two registers, registered stop output."""

    def __init__(self, name: str, variant: ProtocolVariant = DEFAULT_VARIANT):
        super().__init__(name, variant)
        self._main: Token = VOID
        self._aux: Token = VOID
        self._stop_reg: bool = False

    @property
    def registers(self) -> int:
        return 2

    def combinational_stop_inputs(self) -> Sequence[Channel]:
        """None: the stop output is registered."""
        return ()

    @property
    def occupancy(self) -> int:
        """Number of valid tokens currently buffered (0, 1 or 2)."""
        return int(self._main.valid) + int(self._aux.valid)

    def reset(self) -> None:
        self._main = VOID
        self._aux = VOID
        self._stop_reg = False
        self.valid_out_cycles = []

    def publish(self) -> None:
        self.output.drive(self._main)
        if self._stop_reg:
            self.input.stop.set(True)

    def tick(self) -> None:
        telemetry = self._sim.telemetry
        events = None if telemetry is None else telemetry.events
        if events is not None:
            occupancy_before = self.occupancy
        stop_in = self.output.stop.value
        if self._main.valid and not stop_in:
            # A token actually departs this cycle (valid and unstopped).
            self.valid_out_cycles.append(self._sim.cycle)
        incoming = self.input.token
        accepted = incoming.valid and not self._stop_reg
        # As in ProtocolVariant.slot_consumed: the same in both variants.
        consumed = not (self._main.valid and stop_in)

        if self._aux.valid:
            # FULL: the registered stop guarantees nothing arrives now.
            if consumed:
                self._main = self._aux
                self._aux = VOID
                self._stop_reg = False
            # else hold both; stop stays asserted.
        elif consumed:
            self._main = incoming if accepted else VOID
            self._stop_reg = False
        else:
            # main is blocked; a token arriving right now is the one
            # in-flight datum the aux register exists to absorb.
            if accepted:
                self._aux = incoming
                self._stop_reg = True
            # else keep waiting with one buffered token, stop low.
        if events is not None:
            self._trace_occupancy(events, occupancy_before)

    # -- checkpoints -------------------------------------------------------

    def capture_state(self):
        return (self._main, self._aux, self._stop_reg,
                capture_history(self.valid_out_cycles))

    def restore_state(self, state) -> None:
        self._main, self._aux, self._stop_reg, valid_out = state
        self.valid_out_cycles = restore_history(valid_out)

    # -- fault injection ---------------------------------------------------

    def inject_drop(self) -> bool:
        if self._aux.valid:
            # Lose the older token; the skid-slot survivor moves up and
            # the registered stop deasserts (the station believes it
            # has room again).
            self._main = self._aux
            self._aux = VOID
            self._stop_reg = False
            return True
        if self._main.valid:
            self._main = VOID
            return True
        return False

    def inject_duplicate(self) -> bool:
        if self._main.valid and not self._aux.valid:
            # The skid slot re-captures the token currently presented:
            # downstream will see the same payload twice, and the
            # registered stop back-pressures as if a real token had
            # been absorbed.
            self._aux = self._main
            self._stop_reg = True
            return True
        return False


class HalfRelayStation(_RelayBase):
    """Half relay station: one register, combinationally transparent stop.

    Parameters
    ----------
    registered_stop:
        If true, use the ablation design whose stop output is a register
        asserted whenever the station is occupied.  Safe, but at most one
        token every two cycles can cross it (DESIGN.md §7 explains why
        this illustrates the two-register minimum of the full station).
    """

    def __init__(
        self,
        name: str,
        variant: ProtocolVariant = DEFAULT_VARIANT,
        registered_stop: bool = False,
    ):
        super().__init__(name, variant)
        self.registered_stop = registered_stop
        self._main: Token = VOID

    @property
    def registers(self) -> int:
        return 1

    def combinational_stop_inputs(self) -> Sequence[Channel]:
        """The input channel, whose stop :meth:`settle` drives from the
        output stop within the cycle; none for the registered-stop
        ablation."""
        return () if self.registered_stop else (self.input,)

    @property
    def occupancy(self) -> int:
        """Number of valid tokens currently buffered (0 or 1)."""
        return int(self._main.valid)

    def reset(self) -> None:
        self._main = VOID
        self.valid_out_cycles = []

    def publish(self) -> None:
        self.output.drive(self._main)
        if self.registered_stop and self._main.valid:
            # Conservative registered stop: advertise whenever occupied.
            self.input.stop.set(True)

    def settle(self) -> None:
        if self.registered_stop:
            return
        # The refined protocol drops a stop that lands on a void; the
        # original back-propagates it regardless of the datum's
        # validity.
        if self.output.stop.value and (
                self._main.valid or not self._discards_void_stops):
            self.input.stop.set(True)

    def tick(self) -> None:
        telemetry = self._sim.telemetry
        events = None if telemetry is None else telemetry.events
        if events is not None:
            occupancy_before = self.occupancy
        stop_in = self.output.stop.value
        if self._main.valid and not stop_in:
            self.valid_out_cycles.append(self._sim.cycle)
        incoming = self.input.token
        # As in ProtocolVariant.slot_consumed.
        consumed = not (self._main.valid and stop_in)
        # The acceptance decision reads the *settled* stop on the
        # station's own input — which includes the stop this station
        # itself propagated combinationally during settle (transparent
        # mode) or published (registered-stop ablation).  Ticks always
        # run after the settle phase, so the wire holds the final
        # value; see the same-cycle-stop regression in
        # tests/lid/test_relay.py.
        accepted = incoming.valid and not self.input.stop.value

        if consumed:
            self._main = incoming if accepted else VOID
        # else: hold; the transparent (or occupied-registered) stop has
        # already told the upstream to hold as well, so nothing is lost.
        if events is not None:
            self._trace_occupancy(events, occupancy_before)

    # -- checkpoints -------------------------------------------------------

    def capture_state(self):
        return (self._main, capture_history(self.valid_out_cycles))

    def restore_state(self, state) -> None:
        self._main, valid_out = state
        self.valid_out_cycles = restore_history(valid_out)

    # -- fault injection ---------------------------------------------------

    def inject_drop(self) -> bool:
        if self._main.valid:
            self._main = VOID
            return True
        return False
