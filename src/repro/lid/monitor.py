"""Runtime protocol monitors: hardware assertions for live simulations.

The model checker (:mod:`repro.verify`) proves the block *specs* safe;
these monitors watch the *running* system and raise
:class:`~repro.errors.ProtocolViolationError` the moment any channel
breaks a protocol invariant — the simulation counterpart of SVA
assertions bound to every channel:

* **hold**: a valid token presented under an asserted stop must be
  presented unchanged in the next cycle;
* **no-phantom-drop**: a valid token may only disappear in a cycle in
  which it was consumable (no stop);
* **stop-shape** (optional, strict): stop must never be asserted on a
  channel whose token is void when the consumer follows the refined
  protocol.

Attach with :func:`watch_system` (every channel, one cycle hook) or by
constructing :class:`ChannelMonitor` for specific channels.  Monitors
are pure observers — they never drive signals — so they cannot perturb
the run.

Violations are *structured*: every raised
:class:`~repro.errors.ProtocolViolationError` carries the cycle,
channel name, protocol variant and invariant id, and — when the
simulator has :class:`~repro.obs.Telemetry` attached — the same record
is emitted as a ``monitor/violation`` event before raising, so a trace
export captures the violation alongside the events leading up to it.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence

from ..errors import ProtocolViolationError
from ..kernel.scheduler import Simulator
from .channel import Channel
from .token import Token
from .variant import ProtocolVariant


def _violation(sim: Simulator, message: str, *, channel: str,
               invariant: str, cycle: int,
               variant: Optional[ProtocolVariant]
               ) -> ProtocolViolationError:
    """Build the structured error and trace it before it is raised."""
    error = ProtocolViolationError(
        message, cycle=cycle, channel=channel, variant=variant,
        invariant=invariant)
    telemetry = getattr(sim, "telemetry", None)
    if telemetry is not None:
        if telemetry.events is not None:
            telemetry.events.emit(
                "monitor", "violation", cycle, channel=channel,
                invariant=invariant,
                variant=str(variant) if variant else None,
                message=message)
        if telemetry.metrics is not None:
            telemetry.metrics.counter(
                f"lid/monitor/{invariant}/violations").inc()
    return error


class ChannelMonitor:
    """Observer asserting per-channel protocol invariants every cycle."""

    def __init__(self, channel: Channel, strict_stop_shape: bool = False,
                 variant: Optional[ProtocolVariant] = None):
        self.channel = channel
        self.strict_stop_shape = strict_stop_shape
        self.variant = variant
        #: Whether the stop-shape check applies (it is the refined
        #: protocol's rule), decided once.
        self._checks_stop_shape = (strict_stop_shape
                                   and variant is ProtocolVariant.CASU)
        self._prev_token: Optional[Token] = None
        self._prev_stop = False
        self.cycles_observed = 0
        self.tokens_seen = 0

    def attach(self, sim: Simulator) -> "ChannelMonitor":
        sim.add_cycle_hook(self._sample)
        return self

    def capture_state(self):
        """What the monitor remembers between cycles, by value (the
        monitor analogue of :meth:`repro.kernel.Component.capture_state`)."""
        return (self._prev_token, self._prev_stop, self.cycles_observed,
                self.tokens_seen)

    def restore_state(self, state) -> None:
        (self._prev_token, self._prev_stop, self.cycles_observed,
         self.tokens_seen) = state

    def _sample(self, sim: Simulator) -> None:
        _sample_all((self,), sim)


def _sample_all(monitors: Sequence[ChannelMonitor], sim: Simulator) -> None:
    """Sample every monitor's channel once, in order; the first
    violation raises and leaves the later monitors unsampled."""
    for monitor in monitors:
        channel = monitor.channel
        token = channel.token
        stop = channel.stop.value
        prev = monitor._prev_token
        # ``token is prev``: a held token is the same object, so the
        # hold check rarely needs Token.__eq__.
        if prev is not None and prev.valid and monitor._prev_stop \
                and token is not prev and token != prev:
            raise _violation(
                sim,
                f"channel {channel.name!r}: token {prev} was stopped at "
                f"cycle {sim.cycle - 1} but cycle {sim.cycle} presents "
                f"{token} — hold violated",
                channel=channel.name, invariant="hold",
                cycle=sim.cycle, variant=monitor.variant,
            )
        if stop and monitor._checks_stop_shape and not token.valid:
            raise _violation(
                sim,
                f"channel {channel.name!r}: stop asserted on a void "
                f"token at cycle {sim.cycle}; the refined protocol "
                f"discards stops on invalid signals",
                channel=channel.name, invariant="stop-shape",
                cycle=sim.cycle, variant=monitor.variant,
            )
        if token.valid:
            monitor.tokens_seen += 1
        monitor._prev_token = token
        monitor._prev_stop = stop
        monitor.cycles_observed += 1


class StreamMonitor:
    """Observer asserting that a channel's consumed payloads are fresh.

    Detects duplication: the same (consumed) token appearing in two
    consecutive consumable cycles.  Legitimate repeats under stop are
    fine — only back-to-back consumption of an identical token with no
    intervening hold is flagged when ``forbid_repeats`` is set (useful
    for counting streams, where payloads are strictly increasing).
    """

    def __init__(self, channel: Channel, forbid_repeats: bool = False):
        self.channel = channel
        self.forbid_repeats = forbid_repeats
        self.consumed: List = []

    def attach(self, sim: Simulator) -> "StreamMonitor":
        sim.add_cycle_hook(self._sample)
        return self

    def _sample(self, sim: Simulator) -> None:
        token = self.channel.read()
        stop = self.channel.stop_asserted()
        if token.valid and not stop:
            if (self.forbid_repeats and self.consumed
                    and self.consumed[-1] == token.value):
                raise _violation(
                    sim,
                    f"channel {self.channel.name!r}: payload "
                    f"{token.value!r} consumed twice in a row at cycle "
                    f"{sim.cycle}",
                    channel=self.channel.name, invariant="no-duplicate",
                    cycle=sim.cycle, variant=None,
                )
            self.consumed.append(token.value)


def watch_system(system, strict_stop_shape: bool = False
                 ) -> List[ChannelMonitor]:
    """Watch every channel of *system* with a :class:`ChannelMonitor`.

    One cycle hook samples all of them in channel order, so the first
    violation (and its message) is the one per-channel hooks
    registered in that order would raise.  Call before
    :meth:`~repro.lid.system.LidSystem.run`; returns the monitors
    (their counters are handy in tests).  The system's variant governs
    the optional stop-shape check.
    """
    monitors = [ChannelMonitor(channel, strict_stop_shape=strict_stop_shape,
                               variant=system.variant)
                for channel in system.channels]
    system.sim.add_cycle_hook(functools.partial(_sample_all, monitors))
    return monitors
