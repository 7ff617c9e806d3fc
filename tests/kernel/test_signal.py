"""Unit tests for kernel signals."""

import pytest

from repro.kernel.signal import Signal, SignalBundle


class TestSignal:
    def test_initial_value_is_default(self):
        sig = Signal("s", default=False)
        assert sig.value is False

    def test_set_changes_value(self):
        sig = Signal("s", default=0)
        sig.set(3)
        assert sig.value == 3

    def test_set_marks_changed(self):
        sig = Signal("s", default=0)
        sig.set(1)
        assert sig.consume_changed() is True

    def test_set_same_value_not_changed(self):
        sig = Signal("s", default=0)
        sig.set(0)
        assert sig.consume_changed() is False

    def test_consume_changed_clears_flag(self):
        sig = Signal("s", default=0)
        sig.set(1)
        sig.consume_changed()
        assert sig.consume_changed() is False

    def test_set_equal_value_keeps_the_new_object(self):
        # 0.0 == 0, but readers (traces, the payload corruptor) see the
        # type, so a sticky signal must hold what was driven last.
        sig = Signal("s", default=None, sticky=True)
        sig.set(0)
        sig.consume_changed()
        sig.set(0.0)
        assert type(sig.value) is float
        assert sig.consume_changed() is False
        sig.set(True)
        assert sig.value is True

    def test_reset_for_settle_restores_default(self):
        sig = Signal("s", default=False)
        sig.set(True)
        sig.reset_for_settle()
        assert sig.value is False

    def test_sticky_survives_settle_reset(self):
        sig = Signal("s", default=0, sticky=True)
        sig.set(7)
        sig.reset_for_settle()
        assert sig.value == 7

    def test_reset_for_settle_clears_changed(self):
        sig = Signal("s", default=0)
        sig.set(5)
        sig.reset_for_settle()
        assert sig.consume_changed() is False

    def test_none_default(self):
        sig = Signal("s")
        assert sig.value is None


class TestSignalBundle:
    def test_add_and_len(self):
        bundle = SignalBundle("b")
        bundle.add(Signal("x"))
        bundle.add(Signal("y"))
        assert len(bundle) == 2

    def test_values_in_insertion_order(self):
        bundle = SignalBundle("b")
        a = bundle.add(Signal("a", default=1))
        b = bundle.add(Signal("b", default=2))
        assert bundle.values() == [1, 2]
        a.set(10)
        assert bundle.values() == [10, 2]

    def test_iteration(self):
        sigs = [Signal("a"), Signal("b")]
        bundle = SignalBundle("b", sigs)
        assert list(bundle) == sigs
