"""Protocol variants: Carloni's original LIP vs. the paper's refinement.

The paper's key protocol change (DESIGN.md §1.2): *"in previous works the
stop signal is back-propagated regardless of the signals validity, in our
implementation stops on invalid signals are discarded"*.

Concretely the variant affects three decisions:

* whether a shell stalls when a stop arrives on an output that currently
  carries a **void** (nothing would be lost, so the refined protocol
  ignores it);
* whether a shell asserts back pressure on an input that currently
  carries a **void** (no datum to protect, so the refined protocol does
  not);
* whether a relay station holding a **void** in its output register may
  overwrite it while its downstream stop is asserted (the refined
  protocol lets voids be swallowed under stop).

``CASU`` is the paper's variant; ``CARLONI`` reproduces the original
behaviour and serves as the baseline in the speedup bench (EXP-T6).
"""

from __future__ import annotations

import enum


class ProtocolVariant(enum.Enum):
    """Which stop-handling discipline the blocks follow."""

    #: Original protocol: stops propagate regardless of validity.
    CARLONI = "carloni"

    #: The paper's refinement: stops on invalid (void) signals are
    #: discarded, giving higher locality of void/stop management and a
    #: throughput gain during transients.
    CASU = "casu"

    # -- capability flags (consumed by the simulation backends) --------

    @property
    def discards_void_stops(self) -> bool:
        """True when stops landing on void signals are discarded.

        This is the single semantic switch between the variants; every
        skeleton engine branches on this flag (never on enum identity)
        so that a future variant only has to declare its flags to be
        simulatable by every backend.
        """
        return self is ProtocolVariant.CASU

    # -- decision helpers (used by shell and relay stations) -----------

    def output_blocked(self, stop: bool, output_valid: bool) -> bool:
        """Does an asserted *stop* on an output with validity
        *output_valid* stall the producer?"""
        if self is ProtocolVariant.CASU:
            return stop and output_valid
        return stop

    def back_pressure(self, stalled: bool, input_valid: bool) -> bool:
        """Should a stalled consumer assert stop on an input whose
        current token has validity *input_valid*?

        Original protocol: yes, regardless — the stop wave spreads over
        void channels too.  Refinement: a stop landing on an invalid
        signal is discarded, so it is never generated in the first
        place.
        """
        if self is ProtocolVariant.CASU:
            return stalled and input_valid
        return stalled

    def slot_consumed(self, slot_valid: bool, stop: bool) -> bool:
        """Is a relay-station output slot free to be overwritten, given
        its validity and the downstream stop?

        A valid slot is consumed exactly when the downstream did not
        stop.  A void slot is always replaceable — in both protocols:
        voids carry no information, and a relay station that froze voids
        under stop could never be primed (the stop means "do not advance
        valid data", not "hold bubbles").
        """
        return not slot_valid or not stop

    def __str__(self) -> str:
        return self.value


#: Default variant used by builders when none is given.
DEFAULT_VARIANT = ProtocolVariant.CASU
