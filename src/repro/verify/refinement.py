"""Refinement checking: three descriptions of one block, kept honest.

Each protocol block exists at three levels in this repository:

1. the **spec FSM** (:mod:`repro.verify.fsm`) — what the model checker
   explores;
2. the **behavioural component** (:mod:`repro.lid`) — what systems
   simulate;
3. the **gate-level netlist** (:mod:`repro.rtl`) — what the VHDL
   emitter exports.

This module provides the lockstep co-simulation drivers that tie them
together, as library functions (the test suite wraps them; users adding
or modifying a block get the same machinery).  A check replays a long
pseudo-random legal environment trace — offers honouring the hold
contract, arbitrary downstream stops — and compares every observable
wire on every cycle; the first divergence is reported with its cycle
and signal values.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Optional, Tuple

from ..kernel.component import Component
from ..kernel.scheduler import Simulator
from ..lid.channel import Channel
from ..lid.relay import HalfRelayStation, RelayStation
from ..lid.token import Token, VOID
from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from . import fsm


class ScriptedUpstream(Component):
    """A law-abiding producer replaying an offer script.

    Presents token k when the script says "offer"; holds the token (and
    keeps presenting it) while the downstream stop is asserted, exactly
    as the environment contract requires.
    """

    def __init__(self, name: str, chan: Channel, offers: List[bool]):
        super().__init__(name)
        self.chan = chan
        self.offers = offers
        self.k = 0
        self.index = 0
        self.presented: Token = VOID

    def reset(self) -> None:
        self.k = 0
        self.index = 0
        self.presented = VOID

    def publish(self) -> None:
        if not self.presented.valid:
            offer = self.offers[self.index % len(self.offers)]
            self.presented = Token(self.k) if offer else VOID
        self.chan.drive(self.presented)

    def tick(self) -> None:
        stopped = self.chan.stop_asserted()
        if self.presented.valid and not stopped:
            self.k += 1
            self.presented = VOID
        self.index += 1


class ScriptedDownstream(Component):
    """A consumer replaying a stop script."""

    def __init__(self, name: str, chan: Channel, stops: List[bool]):
        super().__init__(name)
        self.chan = chan
        self.stops = stops
        self.index = 0

    def reset(self) -> None:
        self.index = 0

    def publish(self) -> None:
        if self.stops[self.index % len(self.stops)]:
            self.chan.set_stop(True)

    def tick(self) -> None:
        self.index += 1


@dataclasses.dataclass
class RefinementResult:
    """Verdict of one lockstep co-simulation."""

    block: str
    levels: str
    equivalent: bool
    cycles: int
    divergence: Optional[Dict[str, Any]] = None

    def __bool__(self) -> bool:
        return self.equivalent


def random_scripts(seed: int, length: int = 400,
                   offer_bias: float = 0.7,
                   stop_bias: float = 0.4) -> Tuple[List[bool], List[bool]]:
    """Reproducible pseudo-random environment scripts."""
    rng = random.Random(seed)
    offers = [rng.random() < offer_bias for _ in range(length)]
    stops = [rng.random() < stop_bias for _ in range(length)]
    return offers, stops


def _station_factory(kind: str, variant: ProtocolVariant):
    if kind == "full":
        return RelayStation("dut", variant=variant)
    if kind == "half":
        return HalfRelayStation("dut", variant=variant)
    if kind == "half-registered":
        return HalfRelayStation("dut", variant=variant,
                                registered_stop=True)
    raise ValueError(f"unknown station kind {kind!r}")


def cosimulate_relay_spec(
    kind: str,
    seed: int = 0,
    cycles: int = 400,
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> RefinementResult:
    """Behavioural relay station vs spec FSM, in lockstep."""
    offers, stops = random_scripts(seed, cycles)
    sim = Simulator()
    chan_in = Channel.create(sim, "in")
    chan_out = Channel.create(sim, "out")
    station = _station_factory(kind, variant)
    station.connect(chan_in, chan_out)
    sim.add_component(ScriptedUpstream("up", chan_in, offers))
    sim.add_component(station)
    sim.add_component(ScriptedDownstream("down", chan_out, stops))
    sim.reset()

    spec_state: Any = fsm.initial_station(kind)

    for cycle in range(cycles):
        sim.settle()
        out_tok, stop_out = fsm.station_outputs(
            kind, spec_state, chan_out.stop_asserted(), variant)
        observed = {
            "out_valid": bool(chan_out.valid.value),
            "out_data": chan_out.data.value,
            "stop_up": bool(chan_in.stop.value),
        }
        expected = {
            "out_valid": out_tok is not None,
            "out_data": out_tok,
            "stop_up": bool(stop_out),
        }
        if observed["out_valid"] != expected["out_valid"] or \
                (expected["out_valid"]
                 and observed["out_data"] != expected["out_data"]) or \
                observed["stop_up"] != expected["stop_up"]:
            return RefinementResult(
                block=f"{kind} ({variant})",
                levels="behavioural vs spec",
                equivalent=False,
                cycles=cycle,
                divergence={"cycle": cycle, "observed": observed,
                            "expected": expected},
            )
        in_tok = chan_in.read()
        stop_in = chan_out.stop_asserted()
        payload = in_tok.value if in_tok.valid else None
        spec_state = fsm.station_step(kind, spec_state, payload, stop_in,
                                      variant)
        for comp in sim.components:
            comp.tick()
        sim.cycle += 1
    return RefinementResult(
        block=f"{kind} ({variant})",
        levels="behavioural vs spec",
        equivalent=True,
        cycles=cycles,
    )


def cosimulate_relay_netlist(
    kind: str,
    seed: int = 0,
    cycles: int = 400,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    width: int = 8,
) -> RefinementResult:
    """Spec FSM vs gate-level netlist, in lockstep."""
    from ..rtl import (
        NetlistSimulator,
        full_relay_station_netlist,
        half_relay_station_netlist,
    )

    if kind == "half-registered":
        raise ValueError("no netlist exists for the ablation variant")
    is_full = kind == "full"
    netlist = (full_relay_station_netlist(width) if is_full
               else half_relay_station_netlist(width, variant))
    netsim = NetlistSimulator(netlist)
    spec_state: Any = fsm.initial_station(kind)
    rng = random.Random(seed)
    k = 1
    for cycle in range(cycles):
        offer = rng.random() < 0.7
        stop_in = rng.random() < 0.4
        outs = netsim.settle({
            "in_data": k if offer else 0,
            "in_valid": int(offer),
            "stop_in": int(stop_in),
        })
        out_tok, stop_out = fsm.station_outputs(kind, spec_state, stop_in,
                                                variant)
        ok = (outs["out_valid"] == int(out_tok is not None)
              and (out_tok is None or outs["out_data"] == out_tok)
              and outs["stop_out"] == int(stop_out))
        if not ok:
            return RefinementResult(
                block=f"{kind} ({variant})",
                levels="spec vs netlist",
                equivalent=False,
                cycles=cycle,
                divergence={"cycle": cycle, "netlist": dict(outs),
                            "spec": (out_tok, stop_out)},
            )
        accepted = offer and not stop_out
        payload = k if offer else None
        spec_state = fsm.station_step(kind, spec_state, payload, stop_in,
                                      variant)
        netsim.tick()
        if accepted:
            k = (k % 200) + 1
    return RefinementResult(
        block=f"{kind} ({variant})",
        levels="spec vs netlist",
        equivalent=True,
        cycles=cycles,
    )


def check_refinement_stack(
    seeds: Tuple[int, ...] = (0, 1, 2),
    cycles: int = 300,
) -> List[RefinementResult]:
    """The full campaign: every station kind, both variants, both pairs
    of levels, several seeds."""
    results: List[RefinementResult] = []
    for variant in ProtocolVariant:
        for kind in ("full", "half", "half-registered"):
            for seed in seeds:
                results.append(cosimulate_relay_spec(
                    kind, seed, cycles, variant))
        for kind in ("full", "half"):
            for seed in seeds:
                results.append(cosimulate_relay_netlist(
                    kind, seed, cycles, variant))
    return results
