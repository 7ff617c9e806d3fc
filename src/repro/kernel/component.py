"""Component base class for the cycle-accurate kernel.

A component is a synchronous block with:

* **registers** — internal state updated only on the clock edge;
* **Moore outputs** — signals driven from registers, constant within a
  cycle (published once at the start of the settle phase);
* **Mealy outputs** — signals computed combinationally from the
  component's inputs during the settle phase (in this package only the
  backward ``stop`` wires are Mealy, and they are monotone).

The scheduler drives the protocol::

    component.reset()                  # once, before cycle 0
    # each cycle:
    component.publish()                # Moore outputs from current state
    component.settle()                 # Mealy outputs from inputs: once,
                                       # in the settle order, or until
                                       # the fixpoint
    component.tick()                   # sample inputs, update registers

Checkpoints: :meth:`Component.capture_state` returns the state at a
cycle boundary (registers by value, append-only histories by reference
and length), and :meth:`Component.restore_state` loads it into an
identically built component, so a simulation can be resumed mid-run in
a fresh system (see
:meth:`~repro.kernel.scheduler.Simulator.capture_state`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator


def capture_history(items: List[Any]) -> Tuple[List[Any], int]:
    """Capture an append-only history (fire cycles, accepted tokens).

    By reference and length, not by copy: later appends never change
    the prefix, so checkpoints taken at many cycles of one run share
    one list (and pickle it once).
    """
    return items, len(items)


def restore_history(captured: Tuple[List[Any], int]) -> List[Any]:
    """A fresh list holding a :func:`capture_history` prefix."""
    items, length = captured
    return items[:length]


class Component:
    """Base class for all simulatable blocks.

    Subclasses override :meth:`reset`, :meth:`publish`, :meth:`settle`
    and :meth:`tick`.  A purely Moore component (no combinational
    outputs) only needs :meth:`reset`, :meth:`publish` and :meth:`tick`.
    """

    def __init__(self, name: str):
        self.name = name
        self._sim: "Simulator | None" = None

    # -- lifecycle hooks -------------------------------------------------

    def attached(self, sim: "Simulator") -> None:
        """Called when the component is added to a simulator."""
        self._sim = sim

    def reset(self) -> None:
        """Initialize registers to their reset values."""

    def publish(self) -> None:
        """Drive Moore outputs from the current register state.

        Called exactly once per cycle, before any :meth:`settle` pass.
        """

    def settle(self) -> None:
        """Drive Mealy (combinational) outputs from current input values.

        A simulator with a settle order calls it once per cycle, after
        every component that drives its inputs; without one it may be
        called several times per cycle until the signals reach a
        fixpoint.  Implementations must therefore be idempotent and,
        for backward stop logic, monotone (asserting a stop never
        deasserts another).
        """

    def tick(self) -> None:
        """Clock edge: sample settled inputs and update registers."""

    # -- checkpoints -----------------------------------------------------

    def capture_state(self) -> Any:
        """Register state at a cycle boundary.

        The result must not change as the component runs on (a
        checkpoint may be restored many times, long after it was
        taken): registers are captured by value, append-only histories
        with :func:`capture_history`.  It should pickle whenever the
        payloads do.  Publish and settle only drive signals, so a
        capture taken from a cycle hook equals the boundary state of
        that cycle.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpoints")

    def restore_state(self, state: Any) -> None:
        """Load a :meth:`capture_state` result taken on an identically
        built component; the inverse of :meth:`capture_state`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpoints")

    # -- conveniences ----------------------------------------------------

    @property
    def cycle(self) -> int:
        """Current cycle number (0 before the first tick)."""
        if self._sim is None:
            return 0
        return self._sim.cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
