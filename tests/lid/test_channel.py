"""Unit tests for channels."""

import pytest

from repro.errors import StructuralError
from repro.kernel.scheduler import Simulator
from repro.lid.channel import Channel
from repro.lid.token import Token, VOID


@pytest.fixture
def chan():
    return Channel.create(Simulator(), "c")


class TestChannelSignals:
    def test_create_registers_three_signals(self):
        sim = Simulator()
        Channel.create(sim, "x")
        assert sim.find_signal("x.data") is not None
        assert sim.find_signal("x.valid") is not None
        assert sim.find_signal("x.stop") is not None

    def test_stop_defaults_false(self, chan):
        assert chan.stop_asserted() is False

    def test_drive_valid_token(self, chan):
        chan.drive(Token(5))
        assert chan.valid.value is True
        assert chan.data.value == 5

    def test_drive_void(self, chan):
        chan.drive(Token(5))
        chan.drive(VOID)
        assert chan.valid.value is False
        assert chan.data.value is None

    def test_data_wire_follows_the_driven_type(self, chan):
        for token in (Token(0), Token(0.0), Token(1), Token(True)):
            chan.drive(token)
            assert chan.read() is token
            assert type(chan.data.value) is type(token.value)

    def test_read_roundtrip(self, chan):
        chan.drive(Token("payload"))
        assert chan.read() == Token("payload")

    def test_read_void(self, chan):
        assert chan.read() is VOID

    def test_set_stop(self, chan):
        chan.set_stop(True)
        assert chan.stop_asserted() is True


class TestChannelBinding:
    def test_single_producer(self, chan):
        chan.bind_producer("A")
        with pytest.raises(StructuralError):
            chan.bind_producer("B")

    def test_single_consumer(self, chan):
        chan.bind_consumer("A")
        with pytest.raises(StructuralError):
            chan.bind_consumer("B")

    def test_rebind_same_name_ok(self, chan):
        chan.bind_producer("A")
        chan.bind_producer("A")
        assert chan.producer == "A"
