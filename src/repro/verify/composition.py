"""Compositional verification: chains of blocks checked end to end.

The paper verifies each block in isolation under an environment
assumption, and argues compositionality informally ("any composition of
blocks will behave in a latency insensitive sense...").  This module
discharges small instances of that argument mechanically: a *chain* of
relay stations (any mix of flavours), optionally fed by a shell, is
explored exhaustively against the same nondeterministic environment,
with the order/no-skip/hold monitors now watching the far end of the
chain.

Because each station's stop output is exactly the next environment's
stop input, the per-block environment assumptions are discharged
*constructively*: if every block satisfies its contract, the chain's
exploration cannot find a violation — and the checker confirms it
state by state rather than by hand-waving.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from . import fsm
from .env import DownstreamState, UpstreamState
from .monitors import HoldMonitor, OrderMonitor
from .reach import ReachResult, explore


@dataclasses.dataclass(frozen=True)
class _ChainState:
    stations: Tuple
    upstream: UpstreamState
    monitors: Tuple


def verify_chain(
    kinds: Sequence[str],
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_states: int = 400_000,
) -> ReachResult:
    """Exhaustively check a relay-station chain end to end.

    *kinds* lists the stations from upstream to downstream (e.g.
    ``["full", "half", "full"]``).  The environment offers ordered
    tokens at the head (holding on stop, per the contract) and stops
    nondeterministically at the tail; the monitors assert order,
    no-skip and hold-on-stop **at the tail output** — the composed
    system's contract.
    """
    kinds = list(kinds)
    if not kinds:
        raise ValueError("chain needs at least one station")

    initial = _ChainState(
        stations=tuple(fsm.initial_station(k) for k in kinds),
        upstream=UpstreamState(),
        monitors=(OrderMonitor(), HoldMonitor()),
    )

    def successors(state: _ChainState):
        for present in state.upstream.choices():
            for tail_stop in DownstreamState.choices():
                # Settle stop wires back-to-front: station i's stop
                # input is station i+1's stop output.
                stops_in: List[bool] = [False] * len(kinds)
                stop = tail_stop
                for index in range(len(kinds) - 1, -1, -1):
                    stops_in[index] = stop
                    _tok, stop = fsm.station_outputs(
                        kinds[index], state.stations[index], stop,
                        variant)
                head_stop_out = stop

                # Forward tokens presented this cycle.
                tokens = [
                    fsm.station_outputs(kinds[i], state.stations[i],
                                        stops_in[i], variant)[0]
                    for i in range(len(kinds))
                ]
                tail_tok = tokens[-1]

                order, hold = state.monitors
                order = order.advance(tail_tok, tail_stop)
                hold = hold.advance(tail_tok, tail_stop)

                new_stations = []
                feed = present
                for index, kind in enumerate(kinds):
                    new_stations.append(fsm.station_step(
                        kind, state.stations[index], feed,
                        stops_in[index], variant))
                    feed = tokens[index]

                next_state = _ChainState(
                    stations=tuple(new_stations),
                    upstream=state.upstream.after(present, head_stop_out),
                    monitors=(order, hold),
                )
                label = (f"in={present} tail_stop={int(tail_stop)}")
                yield label, next_state

    return explore([initial], successors, max_states=max_states)


def verify_all_chains(
    max_length: int = 2,
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> List[Tuple[Tuple[str, ...], ReachResult]]:
    """Check every chain of station flavours up to *max_length*."""
    import itertools

    results = []
    for length in range(1, max_length + 1):
        for combo in itertools.product(fsm.STATION_KINDS, repeat=length):
            results.append((combo, verify_chain(combo, variant)))
    return results


@dataclasses.dataclass(frozen=True)
class _ShellChainState:
    shell_out: Optional[int]
    stations: Tuple
    upstream: UpstreamState
    monitors: Tuple


def verify_shell_chain(
    kinds: Sequence[str],
    variant: ProtocolVariant = DEFAULT_VARIANT,
    max_states: int = 400_000,
) -> ReachResult:
    """A 1x1 shell feeding a relay chain, verified at the chain's tail.

    This is the system fragment the paper's methodology actually
    builds — shell, then pipelined wire — checked as one product: the
    ordered stream entering the shell must exit the last station in
    order, unskipped, and held under stops, with the shell's
    combinational stall/back-pressure logic in the loop.
    """
    from .env import PAYLOAD_MODULUS

    kinds = list(kinds)
    initial = _ShellChainState(
        shell_out=PAYLOAD_MODULUS - 1,  # shells reset valid
        stations=tuple(fsm.initial_station(k) for k in kinds),
        upstream=UpstreamState(),
        monitors=(OrderMonitor(expected=PAYLOAD_MODULUS - 1),
                  HoldMonitor()),
    )

    def successors(state: _ShellChainState):
        for present in state.upstream.choices():
            for tail_stop in DownstreamState.choices():
                # Stops settle back-to-front through the stations...
                stops_in: List[bool] = [False] * len(kinds)
                stop = tail_stop
                for index in range(len(kinds) - 1, -1, -1):
                    stops_in[index] = stop
                    _tok, stop = fsm.station_outputs(
                        kinds[index], state.stations[index], stop,
                        variant)
                shell_stop_in = stop  # first station's stop output
                # ...and through the shell to the environment.
                blocked = variant.output_blocked(
                    shell_stop_in, state.shell_out is not None)
                fire = present is not None and not blocked
                env_stop = variant.back_pressure(
                    not fire, present is not None)

                tokens = [
                    fsm.station_outputs(kinds[i], state.stations[i],
                                        stops_in[i], variant)[0]
                    for i in range(len(kinds))
                ]
                tail_tok = tokens[-1] if kinds else state.shell_out

                order, hold = state.monitors
                order = order.advance(tail_tok, tail_stop)
                hold = hold.advance(tail_tok, tail_stop)

                # Shell output register update.
                if fire:
                    next_shell_out = present % PAYLOAD_MODULUS
                else:
                    held = (state.shell_out is not None
                            and shell_stop_in)
                    next_shell_out = state.shell_out if held else None

                new_stations = []
                feed = state.shell_out
                for index, kind in enumerate(kinds):
                    new_stations.append(fsm.station_step(
                        kind, state.stations[index], feed,
                        stops_in[index], variant))
                    feed = tokens[index]

                yield (
                    f"in={present} tail_stop={int(tail_stop)}",
                    _ShellChainState(
                        shell_out=next_shell_out,
                        stations=tuple(new_stations),
                        upstream=state.upstream.after(present, env_stop),
                        monitors=(order, hold),
                    ),
                )

    return explore([initial], successors, max_states=max_states)
