"""Queued shells: the other place to put the minimum memory.

The paper's central implementation argument: the stop signal cannot be
back-propagated combinationally forever, so *at least one memory element
to save it* must sit between two shells.  The paper's choice is to keep
the shell simple and put the memory in relay stations.  The earlier
Carloni methodology made the opposite choice: shells with **input
queues** whose (registered) stop means "queue full".

:class:`QueuedShell` implements that alternative.  Each input port gets
a small FIFO (depth >= 2); the stop asserted to the upstream is a
registered function of occupancy with one slot held in reserve to
absorb the token that is already in flight when the stop is first seen
— exactly the full relay station's skid argument, relocated into the
shell.  Consequences, all exercised by the tests:

* two queued shells may be connected **directly** (the lint recognizes
  the registered stop and waives the relay-station rule);
* a queue adds one cycle of latency, like a relay station — loops of
  queued shells obey T = S/(S+Q) with Q counting queue stages;
* depth-2 queues sustain full throughput; depth-1 queues, like the
  registered-stop half station, cannot (the two-register minimum,
  again).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Sequence

from ..errors import StructuralError
from .channel import Channel
from .shell import Shell
from .token import VOID
from .variant import DEFAULT_VARIANT, ProtocolVariant


class QueuedShell(Shell):
    """Shell with per-input FIFOs and registered back pressure.

    Parameters
    ----------
    queue_depth:
        FIFO capacity per input port (>= 1).  Depth 1 degrades
        throughput to 1/2 under streaming (no slot to overlap refill
        with drain); depth 2 is the full-rate minimum.
    """

    def __init__(self, name: str, pearl,
                 variant: ProtocolVariant = DEFAULT_VARIANT,
                 queue_depth: int = 2):
        super().__init__(name, pearl, variant=variant)
        if queue_depth < 1:
            raise StructuralError(
                f"{name}: queue_depth must be >= 1")
        self.queue_depth = queue_depth
        self._queues: Dict[str, Deque] = {}
        self._stop_regs: Dict[str, bool] = {}

    # -- simulation ---------------------------------------------------------

    def reset(self) -> None:
        super().reset()
        self._queues = {
            port: deque() for port in self.pearl.input_ports
        }
        self._stop_regs = {
            port: False for port in self.pearl.input_ports
        }

    def publish(self) -> None:
        super().publish()
        for port, chan in zip(self._in_ports, self._in_chans):
            if self._stop_regs[port]:
                chan.stop.set(True)

    def _inputs_ready(self) -> bool:
        return all(len(q) > 0 for q in self._queues.values())

    def _can_fire(self) -> bool:
        if not self._inputs_ready():
            return False
        discards = self._discards_void_stops
        for chan, reg in zip(self._out_chans, self._out_regs):
            if chan.stop.value and (reg.valid or not discards):
                return False
        return True

    def combinational_stop_inputs(self) -> Sequence[Channel]:
        """None: the input stops are registered (queue full)."""
        return ()

    def settle(self) -> None:
        # No combinational back pressure: the registered stop published
        # at cycle start is the whole story on the input side.
        return

    def tick(self) -> None:
        fired = self._can_fire()
        if fired:
            payloads = {
                port: self._queues[port].popleft()
                for port in self.pearl.input_ports
            }
            self._load(self.pearl.step(payloads))
            self.fired_cycles.append(self._sim.cycle)
            self.fire_count += 1
        else:
            regs = self._out_regs
            for index, chan in enumerate(self._out_chans):
                if not (regs[index].valid and chan.stop.value):
                    regs[index] = VOID

        # Enqueue arrivals and update the registered stops.  Stop is
        # asserted exactly while the queue is full; because the
        # upstream reacts one cycle late, the *last* slot plays the
        # role of the relay station's skid register — it catches the
        # token already in flight when the queue first fills.
        for port, chan in zip(self._in_ports, self._in_chans):
            queue = self._queues[port]
            token = chan.token
            accepted = token.valid and not self._stop_regs[port]
            if accepted:
                if len(queue) >= self.queue_depth:
                    from ..errors import ProtocolViolationError

                    raise ProtocolViolationError(
                        f"{self.name}.{port}: queue overflow — the "
                        f"skid-slot invariant was violated"
                    )
                queue.append(token.value)
            self._stop_regs[port] = len(queue) >= self.queue_depth

    # -- checkpoints ---------------------------------------------------------

    def capture_state(self):
        ports = self.pearl.input_ports
        return (super().capture_state(),
                tuple(tuple(self._queues[port]) for port in ports),
                tuple(self._stop_regs[port] for port in ports))

    def restore_state(self, state) -> None:
        shell_state, queues, stop_regs = state
        super().restore_state(shell_state)
        ports = self.pearl.input_ports
        self._queues = {port: deque(queue)
                        for port, queue in zip(ports, queues)}
        self._stop_regs = dict(zip(ports, stop_regs))

    # -- metrics -------------------------------------------------------------

    def queue_occupancy(self) -> Dict[str, int]:
        return {port: len(q) for port, q in self._queues.items()}
