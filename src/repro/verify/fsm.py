"""Pure-functional spec FSMs of the protocol blocks.

The paper verified its blocks by describing them *"at the RT level"* in
SMV.  We do the same in Python: each block gets a side-effect-free
transition function over immutable states, small enough for exhaustive
exploration.  These specs deliberately duplicate the semantics of
:mod:`repro.lid` — the conformance tests in
``tests/verify/test_conformance.py`` replay random traces through both
the spec and the real simulation components and require lockstep
agreement, so the model checked here is the model that runs.

Payloads are abstracted to small rotating sequence numbers
(data independence: no block inspects a payload), which keeps the state
space finite while still exposing skipped, duplicated or reordered
tokens.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant

#: Abstract payload type: a small int or None for void.
Payload = Optional[int]


@dataclasses.dataclass(frozen=True)
class FullRsState:
    """Registers of a full relay station: main, aux, registered stop."""

    main: Payload = None
    aux: Payload = None
    stop_reg: bool = False

    @property
    def occupancy(self) -> int:
        return (self.main is not None) + (self.aux is not None)


def full_rs_outputs(state: FullRsState) -> Tuple[Payload, bool]:
    """Moore outputs: (token presented, stop to upstream)."""
    return state.main, state.stop_reg


def full_rs_step(
    state: FullRsState,
    in_tok: Payload,
    stop_in: bool,
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> FullRsState:
    """One clock edge of the full relay station."""
    accepted = in_tok is not None and not state.stop_reg
    consumed = variant.slot_consumed(state.main is not None, stop_in)
    if state.aux is not None:
        if consumed:
            return FullRsState(main=state.aux, aux=None, stop_reg=False)
        return state
    if consumed:
        return FullRsState(
            main=in_tok if accepted else None, aux=None, stop_reg=False
        )
    if accepted:
        return FullRsState(main=state.main, aux=in_tok, stop_reg=True)
    return dataclasses.replace(state, stop_reg=False)


@dataclasses.dataclass(frozen=True)
class HalfRsState:
    """The single register of a half relay station."""

    main: Payload = None


def half_rs_stop_out(
    state: HalfRsState,
    stop_in: bool,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    registered_stop: bool = False,
) -> bool:
    """Stop presented to the upstream (Mealy unless *registered_stop*)."""
    if registered_stop:
        return state.main is not None
    if variant is ProtocolVariant.CASU:
        return stop_in and state.main is not None
    return stop_in


def half_rs_step(
    state: HalfRsState,
    in_tok: Payload,
    stop_in: bool,
    variant: ProtocolVariant = DEFAULT_VARIANT,
    registered_stop: bool = False,
) -> HalfRsState:
    """One clock edge of the half relay station."""
    stop_out = half_rs_stop_out(state, stop_in, variant, registered_stop)
    consumed = variant.slot_consumed(state.main is not None, stop_in)
    accepted = in_tok is not None and not stop_out
    if consumed:
        return HalfRsState(main=in_tok if accepted else None)
    return state


# -- any relay-station flavour ---------------------------------------------

#: Relay-station flavours: full, half, and the half station with a
#: registered (conservative) stop.
STATION_KINDS = ("full", "half", "half-registered")


def initial_station(kind: str):
    """Reset state of a relay station of flavour *kind*."""
    if kind not in STATION_KINDS:
        raise ValueError(
            f"unknown station kind {kind!r}; choose from {STATION_KINDS}"
        )
    return FullRsState() if kind == "full" else HalfRsState()


def station_outputs(kind: str, state, stop_in: bool,
                    variant: ProtocolVariant = DEFAULT_VARIANT
                    ) -> Tuple[Payload, bool]:
    """(token presented, stop to upstream) of one station this cycle."""
    if kind == "full":
        return full_rs_outputs(state)
    return state.main, half_rs_stop_out(state, stop_in, variant,
                                        kind == "half-registered")


def station_step(kind: str, state, in_tok: Payload, stop_in: bool,
                 variant: ProtocolVariant = DEFAULT_VARIANT):
    """One clock edge of a station of flavour *kind*."""
    if kind == "full":
        return full_rs_step(state, in_tok, stop_in, variant)
    return half_rs_step(state, in_tok, stop_in, variant,
                        kind == "half-registered")


@dataclasses.dataclass(frozen=True)
class QueuedShellState:
    """Spec state of a queued shell (single input, data independent).

    ``queue`` holds enqueued payloads oldest-first; ``stop_reg`` is the
    registered back pressure published to the upstream; ``out`` is the
    per-channel output register tuple, as for the plain shell.
    """

    queue: Tuple[Payload, ...]
    out: Tuple[Payload, ...]
    stop_reg: bool = False
    depth: int = 2


def queued_shell_fire(state: QueuedShellState,
                      out_stops: Tuple[bool, ...],
                      variant: ProtocolVariant = DEFAULT_VARIANT) -> bool:
    if not state.queue:
        return False
    for reg, stop in zip(state.out, out_stops):
        if variant.output_blocked(stop, reg is not None):
            return False
    return True


def queued_shell_step(
    state: QueuedShellState,
    in_tok: Payload,
    out_stops: Tuple[bool, ...],
    variant: ProtocolVariant = DEFAULT_VARIANT,
    modulus: int = 8,
) -> QueuedShellState:
    """One clock edge of the (single-input) queued shell."""
    queue = state.queue
    if queued_shell_fire(state, out_stops, variant):
        head, queue = queue[0], queue[1:]
        produced = head % modulus
        out = tuple(produced for _ in state.out)
    else:
        out = tuple(
            reg if (reg is not None and stop) else None
            for reg, stop in zip(state.out, out_stops)
        )
    accepted = in_tok is not None and not state.stop_reg
    if accepted:
        queue = queue + (in_tok,)
    return QueuedShellState(
        queue=queue,
        out=out,
        stop_reg=len(queue) >= state.depth,
        depth=state.depth,
    )


@dataclasses.dataclass(frozen=True)
class ShellState:
    """Shell spec state: pearl counter plus per-output registers.

    The spec pearl is data-independent: it consumes one token per input
    and emits ``combine(inputs)`` — by default the first input payload —
    so coherence, ordering and no-skip are all observable.  ``out``
    holds one register per output channel (fan-out replicas).
    """

    out: Tuple[Payload, ...]
    fired: int = 0


def shell_outputs(state: ShellState) -> Tuple[Payload, ...]:
    return state.out


def shell_fire(
    state: ShellState,
    in_toks: Tuple[Payload, ...],
    out_stops: Tuple[bool, ...],
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> bool:
    """Combinational firing condition."""
    if any(tok is None for tok in in_toks):
        return False
    for reg, stop in zip(state.out, out_stops):
        if variant.output_blocked(stop, reg is not None):
            return False
    return True


def shell_input_stops(
    state: ShellState,
    in_toks: Tuple[Payload, ...],
    out_stops: Tuple[bool, ...],
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> Tuple[bool, ...]:
    """Back pressure the shell asserts on each input (Mealy)."""
    stalled = not shell_fire(state, in_toks, out_stops, variant)
    return tuple(
        variant.back_pressure(stalled, tok is not None) for tok in in_toks
    )


def shell_step(
    state: ShellState,
    in_toks: Tuple[Payload, ...],
    out_stops: Tuple[bool, ...],
    variant: ProtocolVariant = DEFAULT_VARIANT,
    modulus: int = 8,
) -> ShellState:
    """One clock edge of the shell around the data-independent pearl."""
    if shell_fire(state, in_toks, out_stops, variant):
        produced = in_toks[0] % modulus if in_toks[0] is not None else None
        return ShellState(
            out=tuple(produced for _ in state.out), fired=state.fired + 1
        )
    new_out = []
    for reg, stop in zip(state.out, out_stops):
        held = reg is not None and stop
        new_out.append(reg if held else None)
    return ShellState(out=tuple(new_out), fired=state.fired)
