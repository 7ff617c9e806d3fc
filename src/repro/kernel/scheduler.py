"""Two-phase synchronous simulation scheduler.

The kernel models single-clock RTL with a *settle / edge* discipline:

1. **Publish** — every component drives its Moore outputs (register
   contents).  These are constant for the rest of the cycle.
2. **Settle** — components' combinational (Mealy) functions drive the
   remaining signals.  In a latency-insensitive design the only Mealy
   nets are the backward ``stop`` wires, whose equations are monotone
   and, in a legal system, acyclic.  A simulator given a *settle order*
   (:meth:`Simulator.set_settle_order`) calls each listed component's
   :meth:`~repro.kernel.component.Component.settle` once, in that
   order, which reaches the same least fixpoint in one pass.  Without
   an order (a bare simulator, or a system whose combinational network
   has a cycle) every component settles repeatedly until no signal
   changes; failure to converge within ``len(components) + 2`` passes
   raises :class:`~repro.errors.ConvergenceError`.
3. **Edge** — every component samples the settled values and updates its
   registers simultaneously.

The one-pass path calls only bound methods from lists the simulator
builds when a phase first runs after the component set or the settle
order changed (:meth:`Simulator.add_component`,
:meth:`~Simulator.replace_component`, :meth:`~Simulator.set_settle_order`):
the ``publish`` of every component that overrides it, the ``settle`` of
the settle order and every ``tick``.  It resets the combinational wires
by assignment, and Moore wires carry no change flag (see
:mod:`repro.kernel.signal`); the fixpoint path keeps every flag.

Fault injection (:mod:`repro.inject`) adds two optional phases that are
completely inert when no injector is attached:

* **wire injection** — hooks run after the settle phase but before
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
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from ..errors import ConvergenceError
from .component import Component
from .signal import Signal

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Telemetry


@dataclasses.dataclass(frozen=True)
class SimState:
    """A simulator checkpoint (see :meth:`Simulator.capture_state`)."""

    cycle: int
    components: Tuple[Any, ...]


class Simulator:
    """Owns signals and components and advances time cycle by cycle.

    A :class:`~repro.obs.Telemetry` handle may be attached with
    :meth:`attach_telemetry`; its profiler then receives per-phase wall
    times (``publish+settle`` / ``hooks`` / ``edge``) and cycle counts.
    Without a profiler the step loop takes no timestamps.
    """

    def __init__(self, name: str = "sim"):
        self.name = name
        self.cycle = 0
        self._components: List[Component] = []
        self._signals: List[Signal] = []
        self._signal_index: Dict[str, Signal] = {}
        #: The signals the settle phase starts from their defaults.
        self._volatile: List[Signal] = []
        self._settle_order: Optional[List[Component]] = None
        #: Bound ``publish`` / ``settle`` / ``tick`` lists of the
        #: one-pass path; ``None`` until the next phase builds them.
        self._phases: Optional[Tuple[List[Callable[[], None]], ...]] = None
        self._cycle_hooks: List[Callable[["Simulator"], None]] = []
        self._inject_wire_hooks: List[Callable[["Simulator"], None]] = []
        self._inject_state_hooks: List[Callable[["Simulator"], None]] = []
        self._was_reset = False
        self.telemetry: Optional["Telemetry"] = None

    # -- construction ----------------------------------------------------

    def add_component(self, component: Component) -> Component:
        """Register a component; returns it for chaining."""
        self._components.append(component)
        component.attached(self)
        self._phases = None
        return component

    def replace_component(self, old: Component, new: Component) -> None:
        """Put *new* in place of the registered component *old*.

        The settle order may name *old*, so it is dropped: the
        simulator settles by the fixpoint until
        :meth:`set_settle_order` is called again.
        """
        components = self._components
        components[components.index(old)] = new
        new.attached(self)
        self._settle_order = None
        self._phases = None

    def signal(self, name: str, default=None, sticky: bool = False) -> Signal:
        """Create (or fetch, if it exists) a named signal."""
        existing = self._signal_index.get(name)
        if existing is not None:
            return existing
        sig = Signal(name, default=default, sticky=sticky)
        self._signals.append(sig)
        self._signal_index[name] = sig
        if not sticky:
            self._volatile.append(sig)
        return sig

    def find_signal(self, name: str) -> Optional[Signal]:
        """Look up a signal by exact name, or ``None``."""
        return self._signal_index.get(name)

    def set_settle_order(
        self, order: Optional[Sequence[Component]],
    ) -> None:
        """Settle each cycle in one pass over *order*; ``None`` restores
        the fixpoint.

        *order* must hold every component whose
        :meth:`~Component.settle` drives a signal, each before every
        component whose ``settle`` reads a signal it drives, so the
        combinational network must be acyclic.  Every non-sticky signal
        must be driven only by ``settle`` or by ``publish``.  The caller
        vouches for both (:mod:`repro.lid` derives the order from its
        structural lint); the kernel does not check them.
        """
        self._settle_order = None if order is None else list(order)
        self._phases = None

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

        ``phase="wire"`` hooks run after the settle phase and before
        the cycle hooks: they may overwrite settled signal values, and
        monitors sample the faulted wires.  ``phase="state"`` hooks run
        after the edge phase: they may corrupt registers as they latch.
        With no hooks registered both call sites loop over an empty
        list.
        """
        self._injection_hooks(phase).append(hook)

    def remove_injection_hook(
        self,
        hook: Callable[["Simulator"], None],
        phase: str = "wire",
    ) -> None:
        """Unregister a hook :meth:`add_injection_hook` registered, so a
        simulator can run the next experiment without it."""
        self._injection_hooks(phase).remove(hook)

    def _injection_hooks(
        self, phase: str,
    ) -> List[Callable[["Simulator"], None]]:
        if phase == "wire":
            return self._inject_wire_hooks
        if phase == "state":
            return self._inject_state_hooks
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
        """Boundary state: the cycle and every component's
        :meth:`~Component.capture_state`, in registration order.  Taken
        from a cycle hook, it is the boundary state of the current
        cycle."""
        if not self._was_reset:
            self.reset()
        return SimState(self.cycle,
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
        self._was_reset = True

    def settle(self) -> None:
        """Settle the current cycle: publish every component's Moore
        outputs, then drive the combinational signals.

        The step loop starts every cycle with this; a lockstep harness
        that ticks the components itself calls it in place of
        :meth:`step`.
        """
        if self._settle_order is None:
            self._settle_fixpoint()
            return
        publishes, settles, _ticks = self._phases or self._build_phases()
        for sig in self._volatile:
            sig.value = sig.default
        for publish in publishes:
            publish()
        for settle in settles:
            settle()

    def _build_phases(self) -> Tuple[List[Callable[[], None]], ...]:
        """The bound-method lists of the one-pass path: each
        component's phase methods are looked up here, once per change
        to the component set or the settle order."""
        components = self._components
        self._phases = (
            [comp.publish for comp in components
             if getattr(comp.publish, "__func__", None)
             is not Component.publish],
            [comp.settle for comp in self._settle_order or ()],
            [comp.tick for comp in components],
        )
        return self._phases

    def _settle_fixpoint(self) -> None:
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
            if not any(sig.consume_changed() for sig in self._signals):
                return
        raise ConvergenceError(
            f"settle phase did not converge within {max_passes} passes at "
            f"cycle {self.cycle}; a combinational function is not monotone "
            f"or a combinational loop escaped the structural lint"
        )

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by *cycles* clock cycles."""
        self._run(cycles)

    def run_until(
        self,
        predicate: Callable[["Simulator"], bool],
        max_cycles: int = 100_000,
    ) -> int:
        """Step until *predicate(sim)* is true after a settle phase.

        Returns the cycle number at which the predicate first held.
        Raises ``TimeoutError`` if *max_cycles* elapse first.
        """
        hit = self._run(max_cycles, predicate)
        if hit is None:
            raise TimeoutError(
                f"predicate not satisfied within {max_cycles} cycles of "
                f"{self.name}")
        return hit

    def _run(
        self,
        cycles: int,
        until: Optional[Callable[["Simulator"], bool]] = None,
    ) -> Optional[int]:
        """The step loop.  Each cycle: settle, wire hooks, cycle hooks,
        edge, state hooks.  Stops after the first cycle at which
        *until(sim)* holds (sampled after the cycle hooks) and returns
        that cycle, else runs *cycles* cycles and returns ``None``."""
        if not self._was_reset:
            self.reset()
        telemetry = self.telemetry
        profiler = telemetry.profiler if telemetry is not None else None
        settle_s = hooks_s = edge_s = 0.0
        t0 = t1 = t2 = 0.0
        settle = self.settle
        wire_hooks = self._inject_wire_hooks
        cycle_hooks = self._cycle_hooks
        state_hooks = self._inject_state_hooks
        start = self.cycle
        hit = None
        for _ in range(cycles):
            if profiler is not None:
                t0 = perf_counter()
            settle()
            for hook in wire_hooks:
                hook(self)
            if profiler is not None:
                t1 = perf_counter()
            for hook in cycle_hooks:
                hook(self)
            if until is not None and until(self):
                hit = self.cycle
            if profiler is not None:
                t2 = perf_counter()
            for tick in (self._phases or self._build_phases())[2]:
                tick()
            for hook in state_hooks:
                hook(self)
            if profiler is not None:
                settle_s += t1 - t0
                hooks_s += t2 - t1
                edge_s += perf_counter() - t2
            self.cycle += 1
            if hit is not None:
                break
        if profiler is not None:
            ran = self.cycle - start
            profiler.add("publish+settle", settle_s, calls=ran)
            profiler.add("hooks", hooks_s, calls=ran)
            profiler.add("edge", edge_s, calls=ran)
            profiler.note_cycles(ran)
            events = telemetry.events
            if events is not None:
                profiler.events = events.emitted
        return hit

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
