"""Fault injection: broken blocks must be caught, not absorbed.

A reproduction that only ever tests correct blocks proves little about
its checking machinery.  Here we inject classic RTL bugs into a relay
station — dropping a held token, duplicating a token, forgetting the
skid register — and require that (a) the runtime channel monitors or
(b) the latency-equivalence oracle flags every one of them.
"""

import pytest

from repro import LidSystem, pearls
from repro.errors import ProtocolViolationError
from repro.lid import watch_system
from repro.lid.reference import is_prefix
from repro.lid.relay import RelayStation
from repro.lid.token import Token, VOID


class DroppingRelay(RelayStation):
    """Bug: loses the held token when the stop persists two cycles."""

    def __init__(self, name, **kwargs):
        super().__init__(name, **kwargs)
        self._stopped_cycles = 0

    def tick(self):
        if self.output.stop_asserted():
            self._stopped_cycles += 1
            if self._stopped_cycles >= 2 and self._main.valid:
                self._main = VOID  # the bug
                self._stopped_cycles = 0
                return
        else:
            self._stopped_cycles = 0
        super().tick()


class DuplicatingRelay(RelayStation):
    """Bug: re-emits the last token after it was already consumed."""

    def tick(self):
        last = self._main
        super().tick()
        if not self._main.valid and last.valid:
            self._main = last  # the bug: zombie token


class ForgetfulRelay(RelayStation):
    """Bug: no skid register — the in-flight token on stop is lost."""

    def tick(self):
        stop_in = self.output.stop_asserted()
        incoming = self.input.read()
        consumed = self.variant.slot_consumed(self._main.valid, stop_in)
        if consumed:
            self._main = incoming if incoming.valid else VOID
        # else: drop `incoming` on the floor (no aux) — the bug.
        self._stop_reg = False


def faulty_system(relay_cls, stop_script=None, stream=None):
    system = LidSystem("faulty")
    src = system.add_source("src", stream=stream)
    a = system.add_shell("A", pearls.Identity(initial=-1))
    b = system.add_shell("B", pearls.Identity(initial=-2))
    sink = system.add_sink("out", stop_script=stop_script)
    system.connect(src, a)
    system.connect(a, b, relays=1)
    system.connect(b, sink)
    # Transplant the faulty relay in place of the healthy one.
    name, = system.relays
    system.replace_relay(name, relay_cls(name, variant=system.variant))
    return system, sink


# Each bug with the traffic shape that exposes it: dropped holds need
# multi-cycle stops; zombie re-emission needs gaps in the stream;
# a missing skid register needs a stop edge during streaming.
TWO_ON_TWO_OFF = lambda c: (c // 2) % 2 == 0  # noqa: E731
GAPPY = [1, 2, None, None, 3, None, 4, None, None, 5]
SCENARIOS = [
    (DroppingRelay, TWO_ON_TWO_OFF, None),
    (DuplicatingRelay, TWO_ON_TWO_OFF, GAPPY),
    (ForgetfulRelay, TWO_ON_TWO_OFF, None),
]


class TestOracleCatchesFaults:
    @pytest.mark.parametrize("relay_cls,stop_script,stream", SCENARIOS)
    def test_equivalence_oracle_flags_bug(self, relay_cls, stop_script,
                                          stream):
        system, sink = faulty_system(relay_cls, stop_script, stream)
        try:
            system.run(60)
        except ProtocolViolationError:
            return  # even better: caught in flight by a guard
        ref = system.reference_outputs(60)["out"]
        assert not is_prefix(sink.payloads, ref), (
            f"{relay_cls.__name__}: the bug survived both the monitors "
            f"and the latency-equivalence oracle"
        )

    def test_hold_monitor_flags_dropped_token(self):
        system, _sink = faulty_system(DroppingRelay, TWO_ON_TWO_OFF)
        watch_system(system)
        with pytest.raises(ProtocolViolationError, match="hold"):
            system.run(60)

    def test_stream_monitor_flags_duplicate(self):
        from repro.lid import StreamMonitor

        system, _sink = faulty_system(DuplicatingRelay,
                                      TWO_ON_TWO_OFF, GAPPY)
        # The faulty station's own output channel carries the zombies.
        (relay,) = system.relays.values()
        StreamMonitor(relay.output,
                      forbid_repeats=True).attach(system.sim)
        with pytest.raises(ProtocolViolationError, match="twice"):
            system.run(60)


class TestHealthySystemsStayClean:
    def test_healthy_relay_passes_same_gauntlet(self):
        system = LidSystem("healthy")
        src = system.add_source("src")
        a = system.add_shell("A", pearls.Identity(initial=-1))
        b = system.add_shell("B", pearls.Identity(initial=-2))
        sink = system.add_sink("out", stop_script=lambda c: c % 3 == 0)
        system.connect(src, a)
        system.connect(a, b, relays=1)
        system.connect(b, sink)
        watch_system(system)
        system.run(60)
        ref = system.reference_outputs(60)["out"]
        assert is_prefix(sink.payloads, ref)
