"""Primary inputs and outputs of a latency-insensitive system.

:class:`Source` feeds a channel from a token stream, honouring back
pressure exactly like a shell output register (hold on stop-over-valid).
:class:`Sink` consumes a channel, recording every valid token it
accepts, and can replay a scripted back-pressure pattern — the knob the
deadlock and throughput experiments use to exercise the protocol from
the outside.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from ..errors import StructuralError
from ..kernel.component import Component, capture_history, restore_history
from .channel import Channel
from .token import Token, VOID
from .variant import DEFAULT_VARIANT, ProtocolVariant


def counting_stream() -> Iterator[Token]:
    """0, 1, 2, ... as valid tokens — the stream used in the paper's
    figures (their traces show consecutive integers flowing)."""
    return (Token(i) for i in itertools.count())


def scripted_stream(pattern: Iterable[Any]) -> Iterator[Token]:
    """Turn a finite pattern into tokens; ``None`` entries become voids.

    After the pattern is exhausted the stream continues with voids,
    modelling a primary input that has no more data to offer.
    """
    def gen():
        for item in pattern:
            if isinstance(item, Token):
                yield item
            else:
                yield VOID if item is None else Token(item)
        while True:
            yield VOID
    return gen()


class Source(Component):
    """Primary input: presents tokens from *stream* on one channel.

    The source behaves like a shell output register: a valid token that
    is stopped is held; a consumed (or void) token is replaced by the
    next stream element on the clock edge.  Its first token is presented
    already at cycle 0, mirroring the paper's convention that shell
    outputs reset to valid data.
    """

    def __init__(
        self,
        name: str,
        stream=None,
        variant: ProtocolVariant = DEFAULT_VARIANT,
    ):
        super().__init__(name)
        self._make_stream: Callable[[], Iterator[Token]]
        if stream is None:
            self._make_stream = counting_stream
        elif callable(stream):
            # A replayable factory: each reset gets a fresh iterator.
            self._make_stream = stream
        elif isinstance(stream, (list, tuple)):
            # A finite payload pattern; ``None`` entries become voids and
            # the stream continues with voids once exhausted.
            pattern = list(stream)
            self._make_stream = lambda: scripted_stream(pattern)
        else:
            # A bare iterator cannot be replayed across resets; it works
            # for a single run only (reference runs and checkpoint
            # restores need a factory).
            self._make_stream = lambda: stream
        self._stream = self._make_stream()
        self._pulls = 0  # elements taken from the current stream
        self.output: Optional[Channel] = None
        self._current: Token = VOID
        self.emitted: List[Tuple[int, Any]] = []

    def connect(self, channel: Channel) -> None:
        if self.output is not None:
            raise StructuralError(f"{self.name}: already connected")
        channel.bind_producer(self.name)
        self.output = channel

    def check_wiring(self) -> None:
        if self.output is None:
            raise StructuralError(f"{self.name}: source not connected")

    def reset(self) -> None:
        self._stream = self._make_stream()
        self._pulls = 0
        self._current = self._pull()
        self.emitted = []

    def _pull(self) -> Token:
        self._pulls += 1
        return next(self._stream, VOID)

    def publish(self) -> None:
        self.output.drive(self._current)

    def tick(self) -> None:
        current = self._current
        if current.valid:
            if self.output.stop.value:
                return  # held under back pressure
            self.emitted.append((self._sim.cycle, current.value))
        self._pulls += 1  # _pull(), inlined on the per-cycle path
        self._current = next(self._stream, VOID)

    # -- checkpoints ---------------------------------------------------------

    def capture_state(self):
        # Generators cannot be copied; the stream position is a pull
        # count replayed on a fresh stream from the factory.
        return (self._current, self._pulls, capture_history(self.emitted))

    def restore_state(self, state) -> None:
        self._current, pulls, emitted = state
        self._stream = self._make_stream()
        self._pulls = 0
        for _ in range(pulls):
            self._pull()
        self.emitted = restore_history(emitted)


class Sink(Component):
    """Primary output: consumes tokens and optionally pushes back.

    Parameters
    ----------
    stop_script:
        ``None`` for an always-ready sink, or a callable
        ``cycle -> bool`` giving the stop value the sink asserts during
        that cycle (a Moore script: it may not depend on settle-phase
        values).
    """

    def __init__(
        self,
        name: str,
        stop_script: Optional[Callable[[int], bool]] = None,
        variant: ProtocolVariant = DEFAULT_VARIANT,
    ):
        super().__init__(name)
        self.variant = variant
        self.stop_script = stop_script
        self.input: Optional[Channel] = None
        self.received: List[Tuple[int, Any]] = []
        self.void_cycles: List[int] = []

    def connect(self, channel: Channel) -> None:
        if self.input is not None:
            raise StructuralError(f"{self.name}: already connected")
        channel.bind_consumer(self.name)
        self.input = channel

    def check_wiring(self) -> None:
        if self.input is None:
            raise StructuralError(f"{self.name}: sink not connected")

    def reset(self) -> None:
        self.received = []
        self.void_cycles = []

    def capture_state(self):
        # The stop script is a pure function of the cycle: no state.
        return (capture_history(self.received),
                capture_history(self.void_cycles))

    def restore_state(self, state) -> None:
        received, void_cycles = state
        self.received = restore_history(received)
        self.void_cycles = restore_history(void_cycles)

    def publish(self) -> None:
        if self.stop_script is not None \
                and self.stop_script(self._sim.cycle):
            self.input.stop.set(True)

    def tick(self) -> None:
        sim = self._sim
        cycle = sim.cycle
        token = self.input.token
        if not token.valid:
            self.void_cycles.append(cycle)
        elif self.stop_script is None or not self.stop_script(cycle):
            self.received.append((cycle, token.value))
            telemetry = sim.telemetry
            if telemetry is not None and telemetry.events is not None:
                telemetry.events.emit("token", "accept", cycle,
                                      sink=self.name)

    # -- metrics -----------------------------------------------------------

    @property
    def payloads(self) -> List[Any]:
        """Valid payloads accepted so far, in arrival order."""
        return [value for _cycle, value in self.received]

    def throughput(self, cycles: int) -> float:
        """Valid tokens accepted per cycle over the first *cycles* cycles."""
        if cycles <= 0:
            return 0.0
        return sum(1 for c, _ in self.received if c < cycles) / cycles

    def steady_throughput(self, warmup: int, cycles: int) -> float:
        """Throughput measured after discarding *warmup* cycles."""
        if cycles <= warmup:
            return 0.0
        accepted = sum(1 for c, _ in self.received if warmup <= c < cycles)
        return accepted / (cycles - warmup)
