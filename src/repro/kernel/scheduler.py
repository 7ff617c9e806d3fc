"""Two-phase synchronous simulation scheduler.

The kernel models single-clock RTL with a *settle / edge* discipline:

1. **Publish** — every component drives its Moore outputs (register
   contents).  These are constant for the rest of the cycle.
2. **Settle** — components' combinational (Mealy) functions are evaluated
   repeatedly until no signal changes.  In a latency-insensitive design
   the only Mealy nets are the backward ``stop`` wires, whose equations
   are monotone; the fixpoint therefore exists and is reached in at most
   ``len(components)`` passes.  Failure to converge within the bound
   raises :class:`~repro.errors.ConvergenceError`.
3. **Edge** — every component samples the settled values and updates its
   registers simultaneously.

Fault injection (:mod:`repro.inject`) adds two optional phases that are
completely inert when no injector is attached:

* **wire injection** — hooks run after the settle fixpoint but before
  the cycle hooks, so they may overwrite settled wire values (a glitch
  or stuck-at near the sampling edge).  Cycle hooks — including the
  protocol monitors — and the edge phase then observe the faulted
  values, which is exactly what lets a monitor *detect* the fault.
* **state injection** — hooks run after the edge phase, so they may
  corrupt freshly latched registers (an SEU in a flip-flop); the
  corruption becomes visible at the next cycle's publish.

This discipline is semantics-preserving for the VHDL/event-driven
simulation the paper used, because all the paper's blocks are synchronous
FSMs on one clock (see DESIGN.md §2).
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..errors import ConvergenceError
from .component import Component
from .signal import Signal

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Telemetry


@dataclasses.dataclass(frozen=True)
class SimState:
    """A simulator checkpoint (see :meth:`Simulator.capture_state`)."""

    cycle: int
    settle_passes: int
    components: Tuple[Any, ...]


class Simulator:
    """Owns signals and components and advances time cycle by cycle.

    A :class:`~repro.obs.Telemetry` handle may be attached with
    :meth:`attach_telemetry`; its profiler then receives per-phase wall
    times (``publish+settle`` / ``hooks`` / ``edge``) and cycle counts.
    Without telemetry (the default) the step loop is untouched.
    """

    def __init__(self, name: str = "sim"):
        self.name = name
        self.cycle = 0
        self._components: List[Component] = []
        self._signals: List[Signal] = []
        self._signal_index: Dict[str, Signal] = {}
        self._cycle_hooks: List[Callable[["Simulator"], None]] = []
        self._inject_wire_hooks: List[Callable[["Simulator"], None]] = []
        self._inject_state_hooks: List[Callable[["Simulator"], None]] = []
        self._was_reset = False
        self.settle_passes_total = 0
        self.telemetry: Optional["Telemetry"] = None

    # -- construction ----------------------------------------------------

    def add_component(self, component: Component) -> Component:
        """Register a component; returns it for chaining."""
        self._components.append(component)
        component.attached(self)
        return component

    def signal(self, name: str, default=None, sticky: bool = False) -> Signal:
        """Create (or fetch, if it exists) a named signal."""
        existing = self._signal_index.get(name)
        if existing is not None:
            return existing
        sig = Signal(name, default=default, sticky=sticky)
        self._signals.append(sig)
        self._signal_index[name] = sig
        return sig

    def find_signal(self, name: str) -> Optional[Signal]:
        """Look up a signal by exact name, or ``None``."""
        return self._signal_index.get(name)

    def add_cycle_hook(self, hook: Callable[["Simulator"], None]) -> None:
        """Run *hook(sim)* after the settle phase of every cycle.

        Hooks see fully settled signal values before the clock edge; this
        is where traces and runtime protocol monitors sample.
        """
        self._cycle_hooks.append(hook)

    def add_injection_hook(
        self,
        hook: Callable[["Simulator"], None],
        phase: str = "wire",
    ) -> None:
        """Register a fault-injection hook (see :mod:`repro.inject`).

        ``phase="wire"`` hooks run after the settle fixpoint and before
        the cycle hooks: they may overwrite settled signal values, and
        monitors sample the faulted wires.  ``phase="state"`` hooks run
        after the edge phase: they may corrupt registers as they latch.
        With no hooks registered both call sites are a single falsy
        branch per cycle.
        """
        if phase == "wire":
            self._inject_wire_hooks.append(hook)
        elif phase == "state":
            self._inject_state_hooks.append(hook)
        else:
            raise ValueError(f"unknown injection phase {phase!r}")

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Route phase timings and events through *telemetry*.

        Components read :attr:`telemetry` lazily, so attaching before
        or after construction is equally fine; attach before
        :meth:`step` for complete phase accounting.
        """
        self.telemetry = telemetry

    # -- execution -------------------------------------------------------

    def reset(self) -> None:
        """Reset all components; must be called before :meth:`step`."""
        self.cycle = 0
        for comp in self._components:
            comp.reset()
        self._was_reset = True

    def capture_state(self) -> "SimState":
        """Boundary state: the cycle, the settle-pass count and every
        component's :meth:`~Component.capture_state`, in registration
        order.  Taken from a cycle hook, the component states are those
        of the current cycle's boundary, but the settle-pass count
        already includes this cycle's settle."""
        if not self._was_reset:
            self.reset()
        return SimState(self.cycle, self.settle_passes_total,
                        tuple(comp.capture_state()
                              for comp in self._components))

    def restore_state(self, state: "SimState") -> None:
        """Resume from a :meth:`capture_state` result taken on an
        identically built simulator.  It replaces :meth:`reset`: the
        next :meth:`step` simulates cycle ``state.cycle``."""
        if len(state.components) != len(self._components):
            raise ValueError(
                f"{self.name}: checkpoint holds {len(state.components)} "
                f"component states for {len(self._components)} "
                f"components")
        for comp, comp_state in zip(self._components, state.components):
            comp.restore_state(comp_state)
        self.cycle = state.cycle
        self.settle_passes_total = state.settle_passes
        self._was_reset = True

    def _settle(self) -> None:
        for sig in self._signals:
            sig.reset_for_settle()
        for comp in self._components:
            comp.publish()
        # Publishing counts as the initial assignment; clear change flags
        # so the fixpoint loop measures only Mealy activity.
        for sig in self._signals:
            sig.consume_changed()
        max_passes = len(self._components) + 2
        for _ in range(max_passes):
            for comp in self._components:
                comp.settle()
            self.settle_passes_total += 1
            if not any(sig.consume_changed() for sig in self._signals):
                return
        raise ConvergenceError(
            f"settle phase did not converge within {max_passes} passes at "
            f"cycle {self.cycle}; a combinational function is not monotone "
            f"or a combinational loop escaped the structural lint"
        )

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by *cycles* clock cycles."""
        if not self._was_reset:
            self.reset()
        telemetry = self.telemetry
        profiler = telemetry.profiler if telemetry is not None else None
        if profiler is not None:
            return self._step_profiled(cycles, profiler)
        for _ in range(cycles):
            self._settle()
            if self._inject_wire_hooks:
                for hook in self._inject_wire_hooks:
                    hook(self)
            for hook in self._cycle_hooks:
                hook(self)
            for comp in self._components:
                comp.tick()
            if self._inject_state_hooks:
                for hook in self._inject_state_hooks:
                    hook(self)
            self.cycle += 1

    def _step_profiled(self, cycles: int, profiler) -> None:
        """The same loop as :meth:`step`, with per-phase wall timing."""
        settle_s = hooks_s = edge_s = 0.0
        for _ in range(cycles):
            t0 = perf_counter()
            self._settle()
            if self._inject_wire_hooks:
                for hook in self._inject_wire_hooks:
                    hook(self)
            t1 = perf_counter()
            for hook in self._cycle_hooks:
                hook(self)
            t2 = perf_counter()
            for comp in self._components:
                comp.tick()
            if self._inject_state_hooks:
                for hook in self._inject_state_hooks:
                    hook(self)
            t3 = perf_counter()
            settle_s += t1 - t0
            hooks_s += t2 - t1
            edge_s += t3 - t2
            self.cycle += 1
        profiler.add("publish+settle", settle_s, calls=cycles)
        profiler.add("hooks", hooks_s, calls=cycles)
        profiler.add("edge", edge_s, calls=cycles)
        profiler.note_cycles(cycles)
        events = self.telemetry.events
        if events is not None:
            profiler.events = events.emitted

    def run_until(
        self,
        predicate: Callable[["Simulator"], bool],
        max_cycles: int = 100_000,
    ) -> int:
        """Step until *predicate(sim)* is true after a settle phase.

        Returns the cycle number at which the predicate first held.
        Raises ``TimeoutError`` if *max_cycles* elapse first.
        """
        if not self._was_reset:
            self.reset()
        for _ in range(max_cycles):
            self._settle()
            if self._inject_wire_hooks:
                for hook in self._inject_wire_hooks:
                    hook(self)
            for hook in self._cycle_hooks:
                hook(self)
            hit = predicate(self)
            for comp in self._components:
                comp.tick()
            if self._inject_state_hooks:
                for hook in self._inject_state_hooks:
                    hook(self)
            self.cycle += 1
            if hit:
                return self.cycle - 1
        raise TimeoutError(
            f"predicate not satisfied within {max_cycles} cycles of {self.name}"
        )

    # -- introspection ---------------------------------------------------

    @property
    def components(self) -> List[Component]:
        return list(self._components)

    @property
    def signals(self) -> List[Signal]:
        return list(self._signals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator({self.name!r}, cycle={self.cycle}, "
            f"components={len(self._components)}, signals={len(self._signals)})"
        )
