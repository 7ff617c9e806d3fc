"""Unit tests for the two-phase scheduler."""

import pytest

from repro.errors import ConvergenceError
from repro.kernel.component import Component
from repro.kernel.scheduler import Simulator


class CountingReg(Component):
    """Moore counter: publishes its register, increments on tick."""

    def __init__(self, name, out):
        super().__init__(name)
        self.out = out
        self.count = 0

    def reset(self):
        self.count = 0

    def publish(self):
        self.out.set(self.count)

    def tick(self):
        self.count += 1


class Follower(Component):
    """Mealy: drives out = in during settle (combinational buffer)."""

    def __init__(self, name, inp, out):
        super().__init__(name)
        self.inp = inp
        self.out = out

    def settle(self):
        if self.inp.value:
            self.out.set(True)


class NonMonotone(Component):
    """Toggles a signal on every settle pass — never converges."""

    def __init__(self, name, sig):
        super().__init__(name)
        self.sig = sig

    def settle(self):
        self.sig.set(not self.sig.value)


class TestSimulator:
    def test_cycle_counter_advances(self):
        sim = Simulator()
        sim.reset()
        sim.step(5)
        assert sim.cycle == 5

    def test_moore_component_publishes(self):
        sim = Simulator()
        out = sim.signal("out", default=None)
        sim.add_component(CountingReg("cnt", out))
        values = []
        sim.add_cycle_hook(lambda s: values.append(out.value))
        sim.step(3)
        assert values == [0, 1, 2]

    def test_step_auto_resets(self):
        sim = Simulator()
        out = sim.signal("out")
        sim.add_component(CountingReg("cnt", out))
        sim.step(1)  # no explicit reset
        assert sim.cycle == 1

    def test_combinational_chain_settles(self):
        sim = Simulator()
        a = sim.signal("a", default=False)
        b = sim.signal("b", default=False)
        c = sim.signal("c", default=False)

        class Driver(Component):
            def settle(self):
                a.set(True)

        # Deliberately add followers before the driver: the fixpoint
        # loop must still propagate a -> b -> c within one cycle.
        sim.add_component(Follower("f2", b, c))
        sim.add_component(Follower("f1", a, b))
        sim.add_component(Driver("drv"))
        seen = []
        sim.add_cycle_hook(lambda s: seen.append((a.value, b.value, c.value)))
        sim.step(1)
        assert seen == [(True, True, True)]

    def test_non_monotone_raises_convergence_error(self):
        sim = Simulator()
        sig = sim.signal("s", default=False)
        sim.add_component(NonMonotone("bad", sig))
        with pytest.raises(ConvergenceError):
            sim.step(1)

    def test_signal_reuse_by_name(self):
        sim = Simulator()
        a = sim.signal("x", default=1)
        b = sim.signal("x")
        assert a is b

    def test_find_signal(self):
        sim = Simulator()
        sig = sim.signal("findme")
        assert sim.find_signal("findme") is sig
        assert sim.find_signal("nope") is None

    def test_run_until_returns_hit_cycle(self):
        sim = Simulator()
        out = sim.signal("out")
        sim.add_component(CountingReg("cnt", out))
        hit = sim.run_until(lambda s: out.value == 4)
        assert hit == 4

    def test_run_until_times_out(self):
        sim = Simulator()
        out = sim.signal("out")
        sim.add_component(CountingReg("cnt", out))
        with pytest.raises(TimeoutError):
            sim.run_until(lambda s: False, max_cycles=10)

    def test_settle_resets_nonsticky_signals_each_cycle(self):
        sim = Simulator()
        stop = sim.signal("stop", default=False)

        class OneShot(Component):
            def __init__(self):
                super().__init__("oneshot")

            def settle(self):
                if self.cycle == 0:
                    stop.set(True)

        comp = OneShot()
        sim.add_component(comp)
        seen = []
        sim.add_cycle_hook(lambda s: seen.append(stop.value))
        sim.step(2)
        assert seen == [True, False]


class TestSettleOrder:
    def _chain(self):
        sim = Simulator()
        a = sim.signal("a", default=False)
        b = sim.signal("b", default=False)
        c = sim.signal("c", default=False)

        class Pulse(Component):
            def settle(self):
                if self.cycle % 2 == 0:
                    a.set(True)

        f2, f1, pulse = Follower("f2", b, c), Follower("f1", a, b), \
            Pulse("pulse")
        for comp in (f2, f1, pulse):
            sim.add_component(comp)
        seen = []
        sim.add_cycle_hook(lambda s: seen.append((a.value, b.value, c.value)))
        return sim, (pulse, f1, f2), seen

    def test_one_pass_in_order_settles_the_chain(self):
        sim, order, seen = self._chain()
        sim.set_settle_order(order)
        sim.step(3)
        # Non-sticky signals start every cycle from their defaults.
        assert seen == [(True,) * 3, (False,) * 3, (True,) * 3]

    def test_one_pass_settles_each_component_once(self):
        sim, order, seen = self._chain()
        sim.set_settle_order(tuple(reversed(order)))
        sim.step(1)
        assert seen == [(True, False, False)]

    def test_replace_component_drops_the_order(self):
        sim, (pulse, f1, f2), seen = self._chain()
        sim.set_settle_order((pulse, f1))  # f2 missing: c stays low
        f2_new = Follower("f2", f2.inp, f2.out)
        sim.replace_component(f2, f2_new)
        assert sim.components[0] is f2_new
        sim.step(1)
        assert seen == [(True, True, True)]  # the fixpoint again


class TestPhaseLists:
    """The one-pass path calls bound methods from lists that every
    change to the component set or the settle order rebuilds."""

    def _counter(self):
        sim = Simulator()
        reg = CountingReg("r", sim.signal("q", default=0, sticky=True))
        sim.add_component(reg)
        sim.set_settle_order([])
        return sim, reg

    def test_component_added_after_the_order_publishes_and_ticks(self):
        sim, reg = self._counter()
        sim.step(2)
        late_out = sim.signal("late", default=0, sticky=True)
        late = CountingReg("late", late_out)
        sim.add_component(late)
        seen = []
        sim.add_cycle_hook(lambda s: seen.append(late_out.value))
        sim.step(3)
        assert seen == [0, 1, 2]
        assert (reg.count, late.count) == (5, 3)

    def test_replaced_component_ticks_in_place_of_the_old(self):
        sim, reg = self._counter()
        sim.step(2)
        new = CountingReg("r", reg.out)
        sim.replace_component(reg, new)
        sim.step(3)
        assert (reg.count, new.count) == (2, 3)

    def test_new_settle_order_takes_effect(self):
        sim, order, seen = TestSettleOrder()._chain()
        sim.set_settle_order(order)
        sim.step(1)
        sim.set_settle_order(tuple(reversed(order)))
        sim.step(2)
        assert seen == [(True,) * 3, (False,) * 3, (True, False, False)]

    def test_removed_injection_hook_no_longer_runs(self):
        sim, _reg = self._counter()
        calls = []

        def hook(s):
            calls.append(s.cycle)

        sim.add_injection_hook(hook, phase="state")
        sim.step(2)
        sim.remove_injection_hook(hook, phase="state")
        sim.step(2)
        assert calls == [0, 1]
        with pytest.raises(ValueError, match="unknown injection phase"):
            sim.remove_injection_hook(hook, phase="edge")

