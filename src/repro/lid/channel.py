"""Point-to-point LID channels.

A channel is the wire bundle the paper adds to every connection:

* ``data``  — forward payload (don't-care when invalid);
* ``valid`` — forward validity flag (the complement of the papers' "void");
* ``stop``  — backward back-pressure flag.

A channel has exactly one producer port and one consumer port; fan-out is
expressed with one channel per sink (the shell replicates its output
token onto each of them), which matches the RTL the paper describes and
keeps the single-driver discipline trivial.

The forward wires are Moore outputs of the producer, driven again at
every publish, so they are *sticky* signals that :meth:`Channel.drive`
assigns without a change flag; only ``stop`` is combinational, starts
each settle phase low and is driven through
:meth:`~repro.kernel.signal.Signal.set`.  The channel also keeps the
token its producer drove (:attr:`Channel.token`) and hands that same
object to the consumer (tokens are immutable), so reading a channel
allocates nothing.  The blocks of :mod:`repro.lid` read ``token`` and
``stop.value`` directly; :meth:`Channel.read` and
:meth:`Channel.stop_asserted` are the same reads for other callers.
"""

from __future__ import annotations

from typing import Optional

from ..kernel.scheduler import Simulator
from ..kernel.signal import Signal
from .token import Token, VOID


class Channel:
    """A data/valid/stop wire bundle between two LID blocks.

    Create channels through :meth:`Channel.create` so the underlying
    signals are registered with the simulator (and therefore participate
    in the settle phase and in traces).
    """

    def __init__(self, name: str, data: Signal, valid: Signal, stop: Signal):
        self.name = name
        self.data = data
        self.valid = valid
        self.stop = stop
        self.producer: Optional[str] = None
        self.consumer: Optional[str] = None
        #: The presented token: the one the producer drove, or the one
        #: a fault forced.
        self.token: Token = VOID

    @classmethod
    def create(cls, sim: Simulator, name: str) -> "Channel":
        """Instantiate the three signals on *sim* and wrap them."""
        data = sim.signal(f"{name}.data", default=None, sticky=True)
        valid = sim.signal(f"{name}.valid", default=False, sticky=True)
        stop = sim.signal(f"{name}.stop", default=False)
        return cls(name, data, valid, stop)

    # -- producer side ---------------------------------------------------

    def drive(self, token: Token) -> None:
        """Publish *token* on the forward wires (producer, Moore).

        The wires are assigned without a change flag: they are driven
        only at publish, before the fixpoint clears every flag, or by
        a fault after the settle phase.
        """
        self.token = token
        self.data.value = token.value
        self.valid.value = token.valid

    def stop_asserted(self) -> bool:
        """Settled value of the backward stop wire (producer reads)."""
        return bool(self.stop.value)

    # -- consumer side ---------------------------------------------------

    def read(self) -> Token:
        """Current forward token (consumer, after publish phase): the
        token the producer drove, or the one a fault forced."""
        return self.token

    def set_stop(self, value: bool) -> None:
        """Drive the backward stop wire (consumer).

        Combinational consumers call this during settle; registered
        consumers (full relay stations) call it during publish.
        """
        self.stop.set(bool(value))

    # -- fault injection ---------------------------------------------------
    #
    # The force_* helpers are the targetable surface used by
    # :mod:`repro.inject`.  They overwrite *settled* wire values and are
    # only legal from a scheduler wire-injection hook (after the settle
    # phase, before the cycle hooks): calling them during settle would
    # break the monotonicity the settle phase relies on.

    def force_stop(self, value: bool) -> None:
        """Overwrite the settled stop wire (stuck-at / glitch faults)."""
        self.stop.set(bool(value))

    def force_valid(self, value: bool, data=None) -> None:
        """Overwrite the settled valid wire.

        Forcing ``False`` turns the presented token into a void (the
        paper's void fault); forcing ``True`` fabricates a phantom token
        whose payload is *data*.
        """
        self.drive(Token(data) if value else VOID)

    def force_payload(self, value) -> None:
        """Corrupt the payload of the currently presented token.

        A no-op on a void token: the data wire is a don't-care when
        ``valid`` is low, so there is nothing to corrupt.
        """
        if self.token.valid:
            self.drive(Token(value))

    # -- bookkeeping -------------------------------------------------------

    def bind_producer(self, block_name: str) -> None:
        if self.producer is not None and self.producer != block_name:
            from ..errors import StructuralError

            raise StructuralError(
                f"channel {self.name!r} already driven by {self.producer!r}; "
                f"cannot also be driven by {block_name!r}"
            )
        self.producer = block_name

    def bind_consumer(self, block_name: str) -> None:
        if self.consumer is not None and self.consumer != block_name:
            from ..errors import StructuralError

            raise StructuralError(
                f"channel {self.name!r} already consumed by {self.consumer!r}; "
                f"cannot also feed {block_name!r}"
            )
        self.consumer = block_name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.name!r}, {self.producer!r} -> {self.consumer!r})"
        )
