"""Tests for the LidSystem container."""

import pytest

from repro import LidSystem, pearls
from repro.errors import StructuralError
from repro.lid.variant import ProtocolVariant

from ..conftest import build_pipeline


class TestConstruction:
    def test_duplicate_names_rejected(self):
        system = LidSystem("x")
        system.add_shell("A", pearls.Identity())
        with pytest.raises(StructuralError):
            system.add_source("A")

    def test_relays_int_builds_full_stations(self):
        system, _sink = build_pipeline(stages=2, relays=3)
        system.finalize()
        from repro.lid.relay import RelayStation

        assert len(system.relays) == 3
        assert all(isinstance(r, RelayStation)
                   for r in system.relays.values())

    def test_relays_spec_list(self):
        system = LidSystem("x")
        src = system.add_source("src")
        sink = system.add_sink("out")
        system.connect(src, sink, relays=["full", "half", "half-registered"])
        from repro.lid.relay import HalfRelayStation, RelayStation

        kinds = [type(r).__name__ for r in system.relays.values()]
        assert kinds.count("RelayStation") == 1
        assert kinds.count("HalfRelayStation") == 2

    def test_connect_returns_channel_chain(self):
        system = LidSystem("x")
        src = system.add_source("src")
        sink = system.add_sink("out")
        chain = system.connect(src, sink, relays=2)
        assert len(chain) == 3  # producer side, between relays, consumer

    def test_sink_cannot_produce(self):
        system = LidSystem("x")
        sink = system.add_sink("out")
        other = system.add_sink("out2")
        with pytest.raises(StructuralError):
            system.connect(sink, other)

    def test_source_cannot_consume(self):
        system = LidSystem("x")
        src = system.add_source("s1")
        src2 = system.add_source("s2")
        with pytest.raises(StructuralError):
            system.connect(src, src2)


class TestExecution:
    def test_run_finalizes_lazily(self):
        system, sink = build_pipeline()
        system.run(5)
        assert system._finalized

    def test_run_without_reset_continues(self):
        system, sink = build_pipeline()
        system.run(5)
        count = len(sink.received)
        system.run(5, reset=False)
        assert len(sink.received) > count

    def test_run_with_reset_restarts(self):
        system, sink = build_pipeline()
        system.run(5)
        system.run(5)  # default reset=True
        assert system.sim.cycle == 5

    def test_variant_propagates_to_blocks(self):
        system = LidSystem("x", variant=ProtocolVariant.CARLONI)
        shell = system.add_shell("A", pearls.Identity())
        assert shell.variant is ProtocolVariant.CARLONI

    def test_sink_throughputs(self):
        system, sink = build_pipeline(stages=1, relays=1)
        system.run(20)
        rates = system.sink_throughputs(20, warmup=5)
        assert rates["out"] == 1.0


class TestStats:
    def test_stats_shape(self):
        system, sink = build_pipeline(stages=2, relays=2)
        system.run(20)
        stats = system.stats()
        assert stats["cycles"] == 20
        assert set(stats["shell_firings"]) == {"S0", "S1"}
        assert stats["sink_deliveries"]["out"] == len(sink.received)

    def test_utilization_full_rate_pipeline(self):
        system, _sink = build_pipeline(stages=2, relays=1)
        system.run(30)
        stats = system.stats()
        # Downstream shells miss a firing or two while the relay
        # stations drain their initial voids; after that it is 1/cycle.
        assert all(u >= 0.9 for u in stats["shell_utilization"].values())

    def test_buffered_tokens_under_permanent_stop(self):
        # The relay station between the two shells fills both slots
        # once the stopped sink freezes the downstream shell.
        system, _sink = build_pipeline(
            stages=2, relays=1, stop_script=lambda c: True)
        system.run(10)
        stats = system.stats()
        assert stats["buffered_tokens"] == 2

    def test_stats_json_compatible(self):
        import json

        system, _sink = build_pipeline()
        system.run(5)
        json.dumps(system.stats())  # no TypeError


class TestTracing:
    def test_trace_channels(self):
        system = LidSystem("t")
        src = system.add_source("src")
        sink = system.add_sink("out")
        chain = system.connect(src, sink, relays=1)
        trace = system.trace_channels(chain)
        system.run(4)
        assert len(trace) == 4
        assert any(".valid" in name for name in trace.names)

    def test_trace_by_name(self):
        system = LidSystem("t")
        src = system.add_source("src")
        sink = system.add_sink("out")
        chain = system.connect(src, sink)
        trace = system.trace([chain[0].data.name])
        system.run(3)
        assert trace.column(chain[0].data.name) == [0, 1, 2]
