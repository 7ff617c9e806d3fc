"""Mixed-level simulation: gate-level blocks inside behavioural systems.

`NetlistRelayStation` wraps a relay-station netlist (full or half) as a
kernel component with the same channel interface as the behavioural
:class:`~repro.lid.relay.RelayStation`, so a single station in a LID
system can be swapped for its gate-level implementation and the whole
system co-simulated — the strongest integration check the RTL layer
offers (and the standard EDA flow: verify a block at gate level in its
real surroundings).

Payload handling: netlists carry fixed-width unsigned integers, so the
wrapper keeps a side table mapping in-flight data values; payloads must
be integers that fit the configured width.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import ElaborationError, StructuralError
from ..kernel.component import Component
from ..lid.channel import Channel
from ..lid.token import Token, VOID
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from .netlist import NetlistSimulator
from .relay_fsm import full_relay_station_netlist, half_relay_station_netlist


class NetlistRelayStation(Component):
    """A relay station simulated at gate level inside a LidSystem.

    Drop-in replacement for the behavioural stations (same ``connect``
    / ``check_wiring`` interface, same reset/publish/settle/tick
    discipline).  ``kind`` selects the netlist: "full" or "half".
    """

    def __init__(self, name: str, kind: str = "full", width: int = 16,
                 variant: ProtocolVariant = DEFAULT_VARIANT):
        super().__init__(name)
        if kind == "full":
            netlist = full_relay_station_netlist(width, name=name)
        elif kind == "half":
            netlist = half_relay_station_netlist(width, variant,
                                                 name=name)
        else:
            raise ElaborationError(f"unknown netlist station {kind!r}")
        self.kind = kind
        self.width = width
        self.variant = variant
        self._netsim = NetlistSimulator(netlist)
        self.input: Optional[Channel] = None
        self.output: Optional[Channel] = None
        self.valid_out_cycles = []

    # -- wiring (mirrors _RelayBase) -----------------------------------------

    def connect(self, input_channel: Channel,
                output_channel: Channel) -> None:
        if self.input is not None or self.output is not None:
            raise StructuralError(f"{self.name}: already connected")
        input_channel.bind_consumer(self.name)
        output_channel.bind_producer(self.name)
        self.input = input_channel
        self.output = output_channel

    def check_wiring(self) -> None:
        if self.input is None or self.output is None:
            raise StructuralError(f"{self.name}: not connected")

    @property
    def registers(self) -> int:
        return 2 if self.kind == "full" else 1

    def combinational_stop_inputs(self) -> Sequence[Channel]:
        """Like the behavioural stations: the half netlist drives its
        input stop from ``stop_in`` within the cycle, the full one
        registers it."""
        return (self.input,) if self.kind == "half" else ()

    @property
    def occupancy(self) -> int:
        values = self._netsim.values
        occ = int(values.get("main_valid", 0))
        if self.kind == "full":
            occ += int(values.get("aux_valid", 0))
        return occ

    # -- simulation ------------------------------------------------------------

    def _encode(self, token: Token) -> int:
        if not token.valid:
            return 0
        value = token.value
        if not isinstance(value, int) or not 0 <= value < (1 << self.width):
            raise ElaborationError(
                f"{self.name}: payload {value!r} does not fit an "
                f"unsigned {self.width}-bit netlist datapath"
            )
        return value

    def reset(self) -> None:
        self._netsim.reset()
        self.valid_out_cycles = []

    def publish(self) -> None:
        # Moore outputs come from the netlist's registers; evaluate
        # with neutral inputs first (register outputs don't depend on
        # them, so this is safe and keeps the API simple).
        outs = self._netsim.settle({
            "in_data": 0, "in_valid": 0, "stop_in": 0,
        })
        if outs["out_valid"]:
            self.output.drive(Token(outs["out_data"]))
        else:
            self.output.drive(VOID)
        if self.kind == "full" and outs["stop_out"]:
            self.input.set_stop(True)

    def settle(self) -> None:
        if self.kind != "half":
            return
        # The half station's stop output is combinational in stop_in.
        outs = self._netsim.settle({
            "in_data": 0, "in_valid": 0,
            "stop_in": int(self.output.stop_asserted()),
        })
        if outs["stop_out"]:
            self.input.set_stop(True)

    def tick(self) -> None:
        token = self.input.read()
        stop_in = self.output.stop_asserted()
        outs = self._netsim.settle({
            "in_data": self._encode(token),
            "in_valid": int(token.valid),
            "stop_in": int(stop_in),
        })
        if outs["out_valid"] and not stop_in:
            self.valid_out_cycles.append(self.cycle)
        self._netsim.tick()

    def throughput(self, cycles: int) -> float:
        if cycles <= 0:
            return 0.0
        return sum(1 for c in self.valid_out_cycles if c < cycles) / cycles


def transplant_netlist_station(system, relay_name: str,
                               width: int = 16) -> NetlistRelayStation:
    """Swap one behavioural relay station of *system* for its netlist.

    Returns the new gate-level station, wired to the same channels.
    Works on a finalized system too (every ``graph.elaborate()`` result
    is one): the next ``run`` repeats the lint and the settle order.
    """
    from ..lid.relay import HalfRelayStation, RelayStation

    old = system.relays[relay_name]
    if isinstance(old, HalfRelayStation):
        kind = "half"
        if old.registered_stop:
            raise ElaborationError(
                "no netlist for the registered-stop ablation variant")
    elif isinstance(old, RelayStation):
        kind = "full"
    else:
        raise ElaborationError(f"{relay_name!r} is not a relay station")
    replacement = NetlistRelayStation(
        relay_name, kind=kind, width=width, variant=old.variant)
    system.replace_relay(relay_name, replacement)
    return replacement
