"""Signals: the wires of the cycle-accurate simulation kernel.

A :class:`Signal` carries one value per clock cycle.  During the
*settle* phase of a cycle, components write combinational values into
signals, in one pass over a settle order or in repeated passes until no
signal changes (a fixpoint).  During the *edge* phase, registered
components sample the settled values and update their internal state.

Signals are deliberately dumb: no drivers list, no resolution function.
Single-driver discipline is enforced structurally by the layers above
(see :mod:`repro.lid.lint`).

Only combinational (Mealy) wires need :meth:`Signal.set`, whose change
flag tells the fixpoint when a pass changed nothing.  A Moore wire is
constant within a cycle and driven only at publish, before the
fixpoint clears every flag, so its driver may assign :attr:`Signal.value`
directly and leave no change flag (:meth:`repro.lid.channel.Channel.drive`
does this for the forward ``data``/``valid`` wires).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional


class Signal:
    """A named single-driver wire.

    Parameters
    ----------
    name:
        Hierarchical name used in traces and error messages.
    default:
        Value the signal assumes at the start of every settle phase unless
        a component drives it.  Backward-flowing ``stop`` wires default to
        ``False`` so the monotone fixpoint starts from the optimistic
        (least) assignment.
    sticky:
        If true, the signal keeps its value across settle-phase resets
        (used for Moore outputs, which are constant within a cycle).
    """

    __slots__ = ("name", "default", "sticky", "value", "_changed")

    def __init__(self, name: str, default: Any = None, sticky: bool = False):
        self.name = name
        self.default = default
        self.sticky = sticky
        #: Current settled (or partially settled) value.  Readers read
        #: it; a Moore driver may assign it (no change flag, see the
        #: module docstring); a combinational driver calls :meth:`set`.
        self.value = default
        self._changed = False

    def set(self, value: Any) -> None:
        """Drive the signal; records whether the value actually changed.

        The signal holds *value* itself even when it compares equal to
        the current value (``0.0`` after ``0``, ``True`` after ``1``):
        a sticky signal is never reset, so keeping the old object would
        show the previous cycle's type to every reader.
        """
        if value != self.value:
            self._changed = True
        self.value = value

    def reset_for_settle(self) -> None:
        """Return to the default value at the start of a settle phase."""
        if not self.sticky:
            self.value = self.default
        self._changed = False

    def consume_changed(self) -> bool:
        """Return and clear the changed flag (used by the fixpoint loop)."""
        changed = self._changed
        self._changed = False
        return changed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, value={self.value!r})"


class SignalBundle:
    """A named, ordered collection of signals.

    Convenience container used by components that expose several related
    wires (e.g. a LID channel's ``data``, ``valid`` and ``stop``).
    """

    def __init__(self, name: str, signals: Optional[Iterable[Signal]] = None):
        self.name = name
        self._signals: list[Signal] = list(signals or [])

    def add(self, signal: Signal) -> Signal:
        self._signals.append(signal)
        return signal

    def __iter__(self):
        return iter(self._signals)

    def __len__(self) -> int:
        return len(self._signals)

    def values(self) -> list:
        """Snapshot of all member values, in insertion order."""
        return [s.value for s in self._signals]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignalBundle({self.name!r}, n={len(self._signals)})"
