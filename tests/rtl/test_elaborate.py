"""Mixed-level simulation: netlist stations inside live systems."""

import pytest

from repro import LidSystem, pearls
from repro.errors import CombinationalLoopError, ElaborationError
from repro.graph import SystemGraph
from repro.lid.reference import is_prefix
from repro.rtl import NetlistRelayStation, transplant_netlist_station


def mixed_system(kind="full", stop_script=None):
    system = LidSystem("mixed")
    src = system.add_source("src")
    a = system.add_shell("A", pearls.Identity(initial=1))
    b = system.add_shell("B", pearls.Identity(initial=2))
    sink = system.add_sink("out", stop_script=stop_script)
    system.connect(src, a)
    system.connect(a, b, relays=[kind])
    system.connect(b, sink)
    (name,) = system.relays
    station = transplant_netlist_station(system, name)
    return system, sink, station


class TestNetlistStation:
    def test_wrong_kind_rejected(self):
        with pytest.raises(ElaborationError):
            NetlistRelayStation("x", kind="quarter")

    def test_register_metadata(self):
        assert NetlistRelayStation("x", kind="full").registers == 2
        assert NetlistRelayStation("x2", kind="half").registers == 1

    def test_payload_width_enforced(self):
        station = NetlistRelayStation("x", kind="full", width=4)
        from repro.lid.token import Token

        with pytest.raises(ElaborationError, match="does not fit"):
            station._encode(Token(99))

    def test_non_integer_payload_rejected(self):
        station = NetlistRelayStation("x", kind="full", width=8)
        from repro.lid.token import Token

        with pytest.raises(ElaborationError):
            station._encode(Token("text"))


class TestMixedSimulation:
    @pytest.mark.parametrize("kind", ["full", "half"])
    def test_streams_like_behavioural(self, kind):
        system, sink, _station = mixed_system(kind)
        system.run(30)
        ref = system.reference_outputs(30)["out"]
        assert is_prefix(sink.payloads, ref)
        assert len(sink.payloads) > 25

    @pytest.mark.parametrize("kind", ["full", "half"])
    def test_backpressure_through_gates(self, kind):
        system, sink, station = mixed_system(
            kind, stop_script=lambda c: (c // 2) % 2 == 0)
        system.run(60)
        ref = system.reference_outputs(60)["out"]
        assert is_prefix(sink.payloads, ref)

    def test_occupancy_visible_from_gates(self):
        system, _sink, station = mixed_system(
            "full", stop_script=lambda c: True)
        system.run(8)
        assert station.occupancy == 2  # both gate-level slots filled

    def test_matches_behavioural_payloads_exactly(self):
        mixed, mixed_sink, _ = mixed_system("full",
                                            stop_script=lambda c: c % 3 == 0)
        mixed.run(50)

        behavioural = LidSystem("plain")
        src = behavioural.add_source("src")
        a = behavioural.add_shell("A", pearls.Identity(initial=1))
        b = behavioural.add_shell("B", pearls.Identity(initial=2))
        sink = behavioural.add_sink("out",
                                    stop_script=lambda c: c % 3 == 0)
        behavioural.connect(src, a)
        behavioural.connect(a, b, relays=1)
        behavioural.connect(b, sink)
        behavioural.run(50)

        assert mixed_sink.payloads == sink.payloads
        assert [c for c, _v in mixed_sink.received] == \
            [c for c, _v in sink.received]

    def test_transplant_rejects_non_station(self):
        system, _sink, _station = mixed_system("full")
        with pytest.raises(KeyError):
            transplant_netlist_station(system, "nonexistent")


class TestTransplantRelint:
    def test_lint_sees_gate_level_half_stations(self):
        system = LidSystem("ring")
        a = system.add_shell("A", pearls.Identity())
        b = system.add_shell("B", pearls.Identity())
        sink = system.add_sink("out")
        system.connect(a, b, relays=["half"])
        system.connect(b, a, relays=["half"])
        system.connect(a, sink)
        for name in list(system.relays):
            transplant_netlist_station(system, name)
        with pytest.raises(CombinationalLoopError, match="full relay"):
            system.finalize()

    def test_transplant_after_elaborate(self):
        """graph.elaborate() finalizes; swapping every half station
        afterwards must still settle the gate-level stations."""
        graph = SystemGraph("halves")
        graph.add_source("src")
        for name in ("S0", "S1", "S2"):
            graph.add_shell(name, pearls.Identity)
        graph.add_sink("out", stop_script=lambda c: (c // 2) % 3 == 0)
        graph.add_edge("src", "S0")
        graph.add_edge("S0", "S1", relays=["half"])
        graph.add_edge("S1", "S2", relays=["half"])
        graph.add_edge("S2", "out")
        behavioural = graph.elaborate()
        behavioural.run(60)
        mixed = graph.elaborate()
        for name in list(mixed.relays):
            transplant_netlist_station(mixed, name)
        mixed.run(60)
        assert mixed.sinks["out"].received == \
            behavioural.sinks["out"].received
        assert mixed.sinks["out"].payloads[:8] == [0, 0, 0, 0, 1, 2, 3, 4]

    def test_transplant_after_a_run(self):
        """Stations swapped in after the kernel built its per-phase
        lists are the ones the next run publishes, settles and ticks."""
        graph = SystemGraph("halves")
        graph.add_source("src")
        for name in ("S0", "S1"):
            graph.add_shell(name, pearls.Identity)
        graph.add_sink("out", stop_script=lambda c: (c // 2) % 3 == 0)
        graph.add_edge("src", "S0", relays=["full"])
        graph.add_edge("S0", "S1", relays=["half"])
        graph.add_edge("S1", "out")
        behavioural = graph.elaborate()
        behavioural.run(60)
        mixed = graph.elaborate()
        mixed.run(20)
        stations = {name: transplant_netlist_station(mixed, name)
                    for name in list(mixed.relays)}
        mixed.run(60)
        assert mixed.sinks["out"].received == \
            behavioural.sinks["out"].received
        for name, station in stations.items():
            assert station.valid_out_cycles == \
                behavioural.relays[name].valid_out_cycles
