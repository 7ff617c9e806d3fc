"""The paper's verification campaign, reproduced.

The paper checked, with SMV:

* for shells — coherent elaboration, correct output order, no skipped
  valid output, under the assumption that inputs keep their values on
  asserted stops;
* for relay stations — correct output order, no skipped valid output,
  output held on asserted stops, under the assumption that valid inputs
  are ordered.

:func:`verify_shell`, :func:`verify_relay_station` and
:func:`verify_all` run those exact checks by exhaustive product
exploration (block spec × constrained environment × monitor).  Each
returns :class:`PropertyResult` rows suitable for the EXP-V1 bench
table.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, List, Optional, Tuple

from ..lid.variant import DEFAULT_VARIANT, ProtocolVariant
from . import fsm
from .env import PAYLOAD_MODULUS, DownstreamState, UpstreamState
from .monitors import (
    CoherenceMonitor,
    HoldMonitor,
    NoSpuriousValidMonitor,
    OrderMonitor,
)
from .reach import Counterexample, ReachResult, explore


@dataclasses.dataclass
class PropertyResult:
    """One row of the verification results table."""

    block: str
    prop: str
    holds: bool
    states_explored: int
    counterexample: Optional[Counterexample] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        verdict = "PASS" if self.holds else "FAIL"
        return (
            f"PropertyResult({self.block}: {self.prop} = {verdict}, "
            f"{self.states_explored} states)"
        )


# -- relay-station products -------------------------------------------------


def _rs_product(
    kind: str,
    variant: ProtocolVariant,
    monitor_names: Tuple[str, ...],
    max_states: int = 200_000,
) -> ReachResult:
    """Explore one relay station against its environment."""
    monitors0: Tuple = tuple(
        {"order": OrderMonitor(),
         "hold": HoldMonitor(),
         "balance": NoSpuriousValidMonitor(balance=0, limit=3),
         }[name]
        for name in monitor_names
    )
    initial = (fsm.initial_station(kind), UpstreamState(), monitors0)

    def successors(state):
        rs, up, monitors = state
        for present in up.choices():
            for stop_in in DownstreamState.choices():
                out_tok, stop_out = fsm.station_outputs(
                    kind, rs, stop_in, variant)
                accepted = present is not None and not stop_out
                next_rs = fsm.station_step(kind, rs, present, stop_in,
                                           variant)
                emitted = out_tok is not None and not stop_in
                next_monitors = []
                for mon in monitors:
                    if isinstance(mon, OrderMonitor):
                        next_monitors.append(mon.advance(out_tok, stop_in))
                    elif isinstance(mon, HoldMonitor):
                        next_monitors.append(mon.advance(out_tok, stop_in))
                    else:
                        next_monitors.append(mon.advance(accepted, emitted))
                next_up = up.after(present, stop_out)
                label = f"in={present} stop_in={int(stop_in)}"
                yield label, (next_rs, next_up, tuple(next_monitors))

    return explore([initial], successors, max_states=max_states)


def verify_relay_station(
    kind: str = "full",
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> List[PropertyResult]:
    """The paper's three relay-station properties for one flavour."""
    block = f"{kind} relay station ({variant})"
    rows: List[PropertyResult] = []
    for prop, monitors in (
        ("produces outputs in the correct order", ("order",)),
        ("does not skip any valid output", ("order", "balance")),
        ("keeps its output on asserted stops", ("hold",)),
    ):
        result = _rs_product(kind, variant, monitors)
        rows.append(PropertyResult(
            block=block,
            prop=prop,
            holds=result.holds,
            states_explored=result.states_explored,
            counterexample=result.counterexample,
        ))
    return rows


# -- shell products -----------------------------------------------------------


def _shell_product(
    n_inputs: int,
    n_outputs: int,
    variant: ProtocolVariant,
    monitor_names: Tuple[str, ...],
    max_states: int = 400_000,
) -> ReachResult:
    init_payload = PAYLOAD_MODULUS - 1
    monitors0: Tuple = tuple(
        {"order": OrderMonitor(expected=init_payload),
         "hold": HoldMonitor(),
         "coherence": CoherenceMonitor(),
         "balance": NoSpuriousValidMonitor(balance=1, limit=3),
         }[name]
        for name in monitor_names
    )
    shell0 = fsm.ShellState(out=(init_payload,) * n_outputs, fired=0)
    # ``fired`` grows unboundedly; quotient it out of the stored state.
    shell0 = dataclasses.replace(shell0, fired=0)
    ups0 = tuple(UpstreamState() for _ in range(n_inputs))
    initial = (shell0, ups0, monitors0)

    def successors(state):
        shell, ups, monitors = state
        present_choices = [up.choices() for up in ups]
        for presents in itertools.product(*present_choices):
            for stops in itertools.product((False, True), repeat=n_outputs):
                in_toks = tuple(presents)
                input_stops = fsm.shell_input_stops(
                    shell, in_toks, stops, variant)
                fired = fsm.shell_fire(shell, in_toks, stops, variant)
                next_shell = fsm.shell_step(
                    shell, in_toks, stops, variant, PAYLOAD_MODULUS)
                next_shell = dataclasses.replace(next_shell, fired=0)
                next_ups = tuple(
                    up.after(present, stop)
                    for up, present, stop in zip(ups, presents, input_stops)
                )
                accepted0 = presents[0] is not None and not input_stops[0]
                next_monitors = []
                for mon in monitors:
                    if isinstance(mon, OrderMonitor):
                        next_monitors.append(
                            mon.advance(shell.out[0], stops[0]))
                    elif isinstance(mon, HoldMonitor):
                        next_monitors.append(
                            mon.advance(shell.out[0], stops[0]))
                    elif isinstance(mon, CoherenceMonitor):
                        next_monitors.append(
                            mon.advance(tuple(u.k for u in next_ups)))
                    else:
                        emitted0 = shell.out[0] is not None and not stops[0]
                        next_monitors.append(
                            mon.advance(accepted0, emitted0))
                label = (
                    f"in={presents} out_stops="
                    f"{tuple(int(s) for s in stops)} fire={int(fired)}"
                )
                yield label, (next_shell, next_ups, tuple(next_monitors))

    return explore([initial], successors, max_states=max_states)


def verify_shell(
    n_inputs: int = 2,
    n_outputs: int = 2,
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> List[PropertyResult]:
    """The paper's three shell properties."""
    block = f"shell {n_inputs}x{n_outputs} ({variant})"
    rows: List[PropertyResult] = []
    for prop, monitors in (
        ("elaborates coherent data", ("coherence",)),
        ("produces outputs in the correct order", ("order",)),
        ("does not skip any valid output", ("order", "balance")),
        ("keeps its output on asserted stops", ("hold",)),
    ):
        result = _shell_product(n_inputs, n_outputs, variant, monitors)
        rows.append(PropertyResult(
            block=block,
            prop=prop,
            holds=result.holds,
            states_explored=result.states_explored,
            counterexample=result.counterexample,
        ))
    return rows


def _queued_shell_product(
    n_outputs: int,
    depth: int,
    variant: ProtocolVariant,
    monitor_names: Tuple[str, ...],
    max_states: int = 400_000,
) -> ReachResult:
    init_payload = PAYLOAD_MODULUS - 1
    monitors0: Tuple = tuple(
        {"order": OrderMonitor(expected=init_payload),
         "hold": HoldMonitor(),
         "balance": NoSpuriousValidMonitor(balance=1, limit=depth + 2),
         }[name]
        for name in monitor_names
    )
    shell0 = fsm.QueuedShellState(
        queue=(), out=(init_payload,) * n_outputs, depth=depth)
    initial = (shell0, UpstreamState(), monitors0)

    def successors(state):
        shell, up, monitors = state
        for present in up.choices():
            for stops in itertools.product((False, True),
                                           repeat=n_outputs):
                stop_out = shell.stop_reg  # registered back pressure
                next_shell = fsm.queued_shell_step(
                    shell, present, stops, variant, PAYLOAD_MODULUS)
                next_up = up.after(present, stop_out)
                next_monitors = []
                for mon in monitors:
                    if isinstance(mon, (OrderMonitor, HoldMonitor)):
                        next_monitors.append(
                            mon.advance(shell.out[0], stops[0]))
                    else:
                        accepted = (present is not None
                                    and not stop_out)
                        emitted = (shell.out[0] is not None
                                   and not stops[0])
                        next_monitors.append(
                            mon.advance(accepted, emitted))
                label = f"in={present} stops={stops}"
                yield label, (next_shell, next_up,
                              tuple(next_monitors))

    return explore([initial], successors, max_states=max_states)


def verify_queued_shell(
    n_outputs: int = 1,
    depth: int = 2,
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> List[PropertyResult]:
    """The shell properties for the queued (FIFO-input) shell."""
    block = f"queued shell depth={depth} ({variant})"
    rows: List[PropertyResult] = []
    for prop, monitors in (
        ("produces outputs in the correct order", ("order",)),
        ("does not skip any valid output", ("order", "balance")),
        ("keeps its output on asserted stops", ("hold",)),
    ):
        result = _queued_shell_product(n_outputs, depth, variant,
                                       monitors)
        rows.append(PropertyResult(
            block=block,
            prop=prop,
            holds=result.holds,
            states_explored=result.states_explored,
            counterexample=result.counterexample,
        ))
    return rows


def verify_all(
    variant: ProtocolVariant = DEFAULT_VARIANT,
) -> List[PropertyResult]:
    """The full campaign: all shells and all relay-station flavours."""
    rows: List[PropertyResult] = []
    rows.extend(verify_shell(1, 1, variant))
    rows.extend(verify_shell(2, 2, variant))
    rows.extend(verify_queued_shell(1, 2, variant))
    for kind in ("full", "half", "half-registered"):
        rows.extend(verify_relay_station(kind, variant))
    return rows


def results_table(rows: Iterable[PropertyResult]) -> str:
    """Render verification rows as an aligned text table."""
    rows = list(rows)
    widths = (
        max(len(r.block) for r in rows),
        max(len(r.prop) for r in rows),
    )
    lines = []
    header = (
        f"{'block'.ljust(widths[0])}  {'property'.ljust(widths[1])}  "
        f"verdict  states"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        verdict = "PASS" if r.holds else "FAIL"
        lines.append(
            f"{r.block.ljust(widths[0])}  {r.prop.ljust(widths[1])}  "
            f"{verdict:7s}  {r.states_explored}"
        )
    return "\n".join(lines)
