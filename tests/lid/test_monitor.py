"""Tests for runtime protocol monitors."""

import pytest

from repro import LidSystem, pearls
from repro.errors import ProtocolViolationError
from repro.kernel.component import Component
from repro.lid import ChannelMonitor, StreamMonitor, watch_system
from repro.lid.channel import Channel
from repro.lid.token import Token, VOID

from ..conftest import build_pipeline


class TestCleanSystems:
    def test_pipeline_passes_under_watch(self):
        system, sink = build_pipeline(stages=2, relays=2)
        monitors = watch_system(system)
        system.run(40)
        assert all(m.cycles_observed == 40 for m in monitors)

    def test_backpressure_passes_under_watch(self):
        system, sink = build_pipeline(
            stages=2, relays=1, stop_script=lambda c: c % 2 == 0)
        watch_system(system)
        system.run(40)  # no exception

    def test_strict_stop_shape_on_refined_protocol(self):
        system, sink = build_pipeline(
            stages=2, relays=1, stop_script=lambda c: c % 3 == 0)
        watch_system(system, strict_stop_shape=False)
        system.run(30)

    def test_token_counting(self):
        system, sink = build_pipeline(stages=1, relays=1)
        monitors = watch_system(system)
        system.run(20)
        # Sink-adjacent channel carries one token per cycle (almost).
        assert max(m.tokens_seen for m in monitors) >= 18


class _HoldBreaker(Component):
    """Drives a channel, deliberately changing a stopped token."""

    def __init__(self, name, chan):
        super().__init__(name)
        self.chan = chan
        self.counter = 0

    def reset(self):
        self.counter = 0

    def publish(self):
        self.chan.drive(Token(self.counter))

    def tick(self):
        self.counter += 1  # advances even while stopped: violation


class _Stopper(Component):
    def __init__(self, name, chan, stop_at):
        super().__init__(name)
        self.chan = chan
        self.stop_at = stop_at

    def publish(self):
        if self.cycle in self.stop_at:
            self.chan.set_stop(True)

    def tick(self):
        pass


class TestViolationDetection:
    def _broken_harness(self):
        from repro.kernel.scheduler import Simulator

        sim = Simulator()
        chan = Channel.create(sim, "c")
        sim.add_component(_HoldBreaker("bad", chan))
        sim.add_component(_Stopper("stop", chan, stop_at={3}))
        ChannelMonitor(chan).attach(sim)
        return sim

    def test_hold_violation_raises(self):
        sim = self._broken_harness()
        with pytest.raises(ProtocolViolationError, match="hold violated"):
            sim.step(10)

    def test_violation_names_channel_and_cycle(self):
        sim = self._broken_harness()
        with pytest.raises(ProtocolViolationError, match="'c'"):
            sim.step(10)


class TestWatchSystem:
    """``watch_system`` samples every channel from one cycle hook."""

    def test_one_cycle_hook_for_every_channel(self, monkeypatch):
        system, _sink = build_pipeline(stages=3, relays=2)
        hooks = []
        add = system.sim.add_cycle_hook
        monkeypatch.setattr(system.sim, "add_cycle_hook",
                            lambda hook: (hooks.append(hook), add(hook)))
        monitors = watch_system(system)
        assert len(hooks) == 1
        assert [m.channel for m in monitors] == system.channels
        system.run(20)
        assert all(m.cycles_observed == 20 for m in monitors)

    def _first_violation(self, watch):
        """Void glitches on every channel in one cycle of a stalling
        pipeline: several stopped tokens vanish at once."""
        from repro.inject import FaultInjector, FaultSpec

        system, _sink = build_pipeline(
            stages=3, relays=1, stop_script=lambda c: c % 4 != 0)
        for chan in system.channels:
            FaultInjector(FaultSpec("void-glitch", chan.name, 9),
                          system).attach()
        watch(system)
        with pytest.raises(ProtocolViolationError) as info:
            system.run(30)
        error = info.value
        return str(error), error.cycle, error.channel, error.invariant

    @staticmethod
    def _per_channel(channels):
        def watch(system):
            for chan in channels(system):
                ChannelMonitor(chan, variant=system.variant).attach(
                    system.sim)
        return watch

    def test_same_first_violation_as_per_channel_hooks(self):
        first = self._first_violation(watch_system)
        assert first == self._first_violation(
            self._per_channel(lambda system: system.channels))
        # Another channel breaks hold in the same cycle, so the order
        # of the samples decides which violation is raised.
        last = self._first_violation(self._per_channel(
            lambda system: reversed(system.channels)))
        assert last[1] == first[1] and last[2] != first[2]


class TestStreamMonitor:
    def test_records_consumed_payloads(self):
        system, sink = build_pipeline(stages=1, relays=1)
        chan = system.channels[-1]
        monitor = StreamMonitor(chan).attach(system.sim)
        system.run(10)
        assert monitor.consumed == sink.payloads

    def test_forbid_repeats_on_counting_stream(self):
        system, sink = build_pipeline(
            stages=1, relays=1,
            pearl_factory=lambda: pearls.Identity(initial=-1))
        chan = system.channels[-1]
        StreamMonitor(chan, forbid_repeats=True).attach(system.sim)
        system.run(20)  # strictly increasing payloads: fine

    def test_repeat_detection(self):
        from repro.kernel.scheduler import Simulator

        sim = Simulator()
        chan = Channel.create(sim, "c")

        class Repeater(Component):
            def publish(self):
                chan.drive(Token(7))

        sim.add_component(Repeater("rep"))
        StreamMonitor(chan, forbid_repeats=True).attach(sim)
        with pytest.raises(ProtocolViolationError, match="twice"):
            sim.step(3)
