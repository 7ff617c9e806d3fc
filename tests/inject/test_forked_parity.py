"""Differential parity: forked campaigns equal from-reset experiments.

``run_campaign`` forks every experiment from a monitored golden trunk
at the fault's first effective cycle and skips faults that never bite.
The reference is the API ``docs/fault_injection.md`` documents: one
bare :meth:`GoldenRun.capture` and a loop of :func:`run_experiment`
calls, each simulating from reset.  Every result's ``to_dict()`` must
match.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import InjectionError
from repro.exec import GraphRef, ResultCache
from repro.graph import SystemGraph, reconvergent
from repro.graph.specs import parse_topology
from repro.inject import (
    FAULT_CLASSES,
    STATE_KINDS,
    WIRE_KINDS,
    FaultSpec,
    GoldenRun,
    generate_faults,
    run_campaign,
    run_experiment,
)
from repro.lid.monitor import watch_system
from repro.lid.token import Token
from repro.lid.variant import ProtocolVariant
from repro.obs import Telemetry
from repro.pearls import FunctionPearl, Identity, MovingAverage

CLASSES = tuple(cls for cls in FAULT_CLASSES if cls != "cdc")
VARIANTS = (ProtocolVariant.CASU, ProtocolVariant.CARLONI)
FAMILIES = ("figure1", "figure2:relays=2", "ring:shells=3",
            "pipeline:stages=4", "tree:depth=2", "reconvergent",
            "composed", "self_loop", "butterfly", "dag:shells=4",
            "loopy:shells=3", "feedback")
CYCLES = 48


def _from_reset(graph, faults, variant, cycles, strict, monitors=True,
                telemetry=None):
    golden = GoldenRun.capture(graph, variant, cycles)
    return [run_experiment(graph, spec, golden, variant=variant,
                           strict=strict, monitors=monitors,
                           telemetry=telemetry).to_dict()
            for spec in faults]


def _forked(graph, faults, variant, cycles, strict, monitors=True,
            telemetry=None):
    report = run_campaign(graph, variant=variant, cycles=cycles,
                          faults=faults, strict=strict, monitors=monitors,
                          telemetry=telemetry)
    return [result.to_dict() for result in report.results]


def _windows(cycles):
    return (dict(exhaustive=True, window=(0, 3)),
            dict(exhaustive=True, window=(cycles - 3, cycles)),
            dict(samples=24))


def _check(topology, variant, strict, shape, cycles=CYCLES):
    graph = parse_topology(topology, seed=3)
    faults = generate_faults(graph, variant=variant, classes=CLASSES,
                             cycles=cycles, seed=5, **shape)
    assert faults
    assert (_forked(graph, faults, variant, cycles, strict)
            == _from_reset(graph, faults, variant, cycles, strict))


@pytest.mark.parametrize("strict", (False, True))
@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("topology", ("figure2:relays=2", "ring:shells=3",
                                      "dag:shells=4"))
def test_sampled_parity(topology, variant, strict):
    _check(topology, variant, strict, dict(samples=24))


def test_exhaustive_void_window_under_back_pressure():
    # Void glitches on stopped valid tokens trip the hold monitor in
    # the fork cycle itself, which only a restored monitor memory sees.
    _check("reconvergent", ProtocolVariant.CASU, False,
           dict(exhaustive=True, window=(4, 12)))


@pytest.mark.slow
@pytest.mark.parametrize("shape", range(3))
@pytest.mark.parametrize("strict", (False, True))
@pytest.mark.parametrize("variant", VARIANTS, ids=str)
@pytest.mark.parametrize("topology", FAMILIES)
def test_full_grid_parity(topology, variant, strict, shape):
    _check(topology, variant, strict, _windows(CYCLES)[shape])


def _stops_on_a_void(trip=11):
    """source -> A -> rs -> sink, with a void in the stream and a sink
    that stops exactly when that void arrives: the strict stop-shape
    monitor trips on the golden run itself."""
    pattern = list(range(8)) + [None] + list(range(8, 40))
    graph = SystemGraph("stops-on-void")
    graph.add_source("src", lambda: iter(
        Token.void() if v is None else Token(v) for v in pattern))
    graph.add_shell("A", Identity)
    graph.add_sink("out", stop_script=lambda c: c == trip)
    graph.add_edge("src", "A", relays=1)
    graph.add_edge("A", "out", relays=1)
    return graph


class TestCorners:
    def test_trunk_monitor_trip(self):
        graph = _stops_on_a_void()
        variant = ProtocolVariant.CASU
        golden = GoldenRun.capture(graph, variant, 32)
        trunk = GoldenRun.capture(graph, variant, 32, strict=True,
                                  faults=[])
        assert trunk.trunk_detail is not None
        assert "stop-shape" in trunk.trunk_detail
        trip = int(trunk.trunk_detail.split("cycle ")[1].split()[0])
        assert trunk.sink_payloads == golden.sink_payloads
        channels = [chan.name for chan in graph.elaborate().channels]
        faults = [FaultSpec(kind, chan, cycle)
                  for kind in ("stop-glitch", "void-glitch", "payload",
                               "stop-stuck-0", "delayed-stop")
                  for chan in channels
                  for cycle in (trip - 3, trip - 1, trip, trip + 1,
                                trip + 4)]
        faults += [FaultSpec("relay-drop", relay, cycle)
                   for relay in graph.elaborate().relays
                   for cycle in (trip - 1, trip, trip + 1)]
        forks = GoldenRun.capture(graph, variant, 32, strict=True,
                                  faults=faults).forks
        # Faults that bite before or at the trip fork; the others take
        # the trunk's detection unsimulated.
        assert {fork.cycle for fork in forks if fork} >= {trip - 1, trip}
        assert max(fork.cycle for fork in forks if fork) == trip
        assert None in forks
        forked = _forked(graph, faults, variant, 32, True)
        assert forked == _from_reset(graph, faults, variant, 32, True)
        verdicts = {result["verdict"] for result in forked}
        assert "detected" in verdicts and len(verdicts) > 1

    @pytest.mark.parametrize("strict", (False, True))
    def test_monitors_off(self, strict):
        graph = parse_topology("figure2:relays=2")
        variant = ProtocolVariant.CASU
        faults = generate_faults(graph, variant=variant, classes=CLASSES,
                                 cycles=CYCLES, samples=24, seed=1)
        assert (_forked(graph, faults, variant, CYCLES, strict, False)
                == _from_reset(graph, faults, variant, CYCLES, strict,
                               False))

    def _channel_faults(self, graph, kind, cycles, **fields):
        return [FaultSpec(kind, chan.name, cycle, **fields)
                for chan in graph.elaborate().channels
                for cycle in cycles]

    def test_delayed_stop_at_cycle_zero(self):
        graph = parse_topology("ring:shells=3")
        faults = (self._channel_faults(graph, "delayed-stop", (0, 1))
                  + self._channel_faults(graph, "delayed-stop", (0,),
                                         duration=0))
        for variant in VARIANTS:
            assert (_forked(graph, faults, variant, CYCLES, True)
                    == _from_reset(graph, faults, variant, CYCLES, True))

    def test_payload_value_equal_to_golden_data(self):
        # A payload fault whose value is the presented payload changes
        # nothing: it must not bite (nor count as fired) in that cycle.
        graph = parse_topology("figure2")
        system = graph.elaborate(variant=ProtocolVariant.CASU)
        trace = system.trace_channels(system.channels)
        system.run(CYCLES)
        rows = {cycle: trace.row(cycle) for cycle in range(12)}
        chan, cycle = next(
            (chan.name, cycle) for cycle in range(6, 12)
            for chan in system.channels
            if rows[cycle][f"{chan.name}.valid"])
        value = rows[cycle][f"{chan}.data"]
        faults = self._channel_faults(graph, "payload", range(12),
                                      value=value)
        faults += self._channel_faults(graph, "payload", (cycle,),
                                       value=value, duration=0)
        forked = _forked(graph, faults, ProtocolVariant.CASU, CYCLES,
                         False)
        assert forked == _from_reset(graph, faults, ProtocolVariant.CASU,
                                     CYCLES, False)
        for spec, result in zip(faults, forked):
            if spec.duration:
                row = rows[spec.cycle]
                bites = (row[f"{spec.target}.valid"]
                         and row[f"{spec.target}.data"] != value)
                assert result["fired"] == bool(bites), spec.label()
        assert not forked[faults.index(
            FaultSpec("payload", chan, cycle, value=value))]["fired"]

    def test_payload_fault_corrupts_the_presented_type(self):
        # A moving average publishes its int reset value 0, then the
        # float mean 0.0.  The default corruptor picks its behaviour by
        # type, so a payload fault in the cycle the output turns to 0.0
        # must tag the float rather than flip bit 0 of the stale int.
        graph = SystemGraph("moving-average")
        graph.add_source("src")
        graph.add_shell("avg", lambda: MovingAverage(window=2))
        graph.add_sink("out")
        graph.add_edge("src", "avg")
        graph.add_edge("avg", "out", relays=1)
        faults = [FaultSpec("payload", chan.name, cycle)
                  for chan in graph.elaborate().channels
                  for cycle in range(4)]
        forked = _forked(graph, faults, ProtocolVariant.CASU, CYCLES,
                         False)
        assert forked == _from_reset(graph, faults, ProtocolVariant.CASU,
                                     CYCLES, False)
        details = {result["label"]: result["detail"] for result in forked}
        for label in ("payload@avg->out#2@c1", "payload@avg->out#3@c2"):
            assert details[label] == ("sink 'out' diverges at token 1: "
                                      "got ('corrupt', 0.0), expected 0.0")

    def test_callable_shell_corrupt(self):
        graph = parse_topology("figure2:relays=2")
        faults = [FaultSpec("shell-corrupt", shell, cycle,
                            value=lambda v: v + 100)
                  for shell in graph.elaborate().shells
                  for cycle in (0, 5, 20)]
        assert (_forked(graph, faults, ProtocolVariant.CASU, CYCLES, True)
                == _from_reset(graph, faults, ProtocolVariant.CASU,
                               CYCLES, True))

    def test_fault_cycle_at_or_past_the_end(self):
        graph = parse_topology("figure1")
        chan = graph.elaborate().channels[0].name
        shell = next(iter(graph.elaborate().shells))
        faults = [FaultSpec(kind, target, cycle, duration=duration)
                  for kind, target in (("stop-stuck-1", chan),
                                       ("void-glitch", chan),
                                       ("delayed-stop", chan),
                                       ("shell-corrupt", shell))
                  for cycle in (CYCLES - 1, CYCLES, CYCLES + 5)
                  for duration in (0, 1)]
        forked = _forked(graph, faults, ProtocolVariant.CASU, CYCLES, True)
        assert forked == _from_reset(graph, faults, ProtocolVariant.CASU,
                                     CYCLES, True)
        assert all(result["verdict"] == "masked" for result in forked
                   if result["fault"]["cycle"] >= CYCLES)

    def test_metrics_snapshot_matches_from_reset_loop(self):
        graph = parse_topology("figure2:relays=2")
        variant = ProtocolVariant.CASU
        faults = generate_faults(graph, variant=variant, classes=CLASSES,
                                 cycles=CYCLES, samples=16, seed=2)
        forked_t = Telemetry.metrics_only()
        reset_t = Telemetry.metrics_only()
        forked = _forked(graph, faults, variant, CYCLES, True,
                         telemetry=forked_t)
        reference = _from_reset(graph, faults, variant, CYCLES, True,
                                telemetry=reset_t)
        assert forked == reference
        # run_campaign also counts verdicts; the per-cycle metrics
        # (stall counters, occupancy histograms) must match exactly.
        snapshot = forked_t.metrics.snapshot()
        verdicts = {key for key in snapshot if "inject/verdict" in key}
        for key in verdicts:
            snapshot.pop(key)
        assert snapshot == reset_t.metrics.snapshot()


class _Ascending(Identity):
    """Raises from ``step``, in the edge phase, on a payload that does
    not exceed the last one it passed (a corrupted or repeated count)."""

    def reset(self):
        self.last = -1
        return super().reset()

    def step(self, inputs):
        if inputs["a"] <= self.last:
            raise ValueError(f"payload {inputs['a']} after {self.last}")
        self.last = inputs["a"]
        return super().step(inputs)


def ascending_graph():
    graph = SystemGraph("ascending")
    graph.add_source("src")
    graph.add_shell("A", _Ascending)
    graph.add_shell("B", Identity)
    graph.add_sink("out", stop_script=lambda c: c % 3 == 1)
    graph.add_edge("src", "A", relays=1)
    graph.add_edge("A", "B", relays=["half"])
    graph.add_edge("B", "out", relays=1)
    return graph


class TestReusedSystem:
    """A serial campaign runs its forked experiments in one elaborated
    system; each must equal the same fault run alone from reset."""

    @pytest.mark.parametrize("variant", VARIANTS, ids=str)
    @pytest.mark.parametrize("topology", FAMILIES)
    def test_every_kind_matches_isolated_runs(self, topology, variant):
        graph = parse_topology(topology, seed=3)
        faults = generate_faults(graph, variant=variant, classes=CLASSES,
                                 cycles=CYCLES, exhaustive=True,
                                 window=(9, 10), seed=5)
        kinds = set(WIRE_KINDS + STATE_KINDS)
        relays = graph.elaborate(variant=variant).relays.values()
        if not any(relay.registers == 2 for relay in relays):
            kinds.discard("relay-duplicate")
        assert {spec.kind for spec in faults} == kinds
        assert (_forked(graph, faults, variant, CYCLES, True)
                == _from_reset(graph, faults, variant, CYCLES, True))

    def _sequence(self):
        """Detections that raise mid-cycle (a monitor) and in the edge
        phase (a pearl), a permanent fault, each followed by a masked
        experiment that still simulates."""
        graph = ascending_graph()
        variant = ProtocolVariant.CASU
        candidates = generate_faults(graph, variant=variant,
                                     classes=CLASSES, cycles=CYCLES,
                                     exhaustive=True, window=(10, 14))
        alone = _from_reset(graph, candidates, variant, CYCLES, False)

        def first(predicate):
            return next(spec for spec, result in zip(candidates, alone)
                        if predicate(result))

        monitor = first(lambda r: r["detail"].startswith("monitor 'hold'"))
        edge = first(lambda r: r["detail"].startswith("crash: ValueError"))
        masked = [spec for spec, result in zip(candidates, alone)
                  if result["verdict"] == "masked" and result["fired"]]
        sink_channel = graph.elaborate().sinks["out"].input.name
        stuck = FaultSpec("stop-stuck-1", sink_channel, 11, duration=0)
        return graph, variant, [monitor, masked[0], edge, masked[1],
                                stuck, masked[-1]]

    def test_raising_and_permanent_faults_leave_no_trace(self):
        graph, variant, faults = self._sequence()
        forked = _forked(graph, faults, variant, CYCLES, False)
        assert forked == _from_reset(graph, faults, variant, CYCLES, False)
        assert [result["verdict"] for result in forked][:4] == \
            ["detected", "masked", "detected", "masked"]
        assert forked[-1]["verdict"] == "masked"

    def test_no_injection_hook_outlives_its_experiment(self):
        graph, variant, faults = self._sequence()
        trunk = GoldenRun.capture(graph, variant, CYCLES, faults=faults)
        system = graph.elaborate(variant=variant)
        elaborated = (system, watch_system(system))
        results = []
        for spec, fork in zip(faults, trunk.forks):
            results.append(run_experiment(
                graph, spec, trunk, variant=variant, checkpoint=fork,
                elaborated=elaborated).to_dict())
            assert system.sim._inject_wire_hooks == []
            assert system.sim._inject_state_hooks == []
        assert results == _from_reset(graph, faults, variant, CYCLES, False)
        with pytest.raises(InjectionError, match="checkpoint"):
            run_experiment(graph, faults[0], trunk, variant=variant,
                           elaborated=elaborated)


def lambda_pearl_graph():
    """A join pearl holding a lambda: deep-copyable, not picklable."""
    return reconvergent(join_factory=lambda: FunctionPearl(
        lambda a, b: a + b, inputs=("a", "b")))


class _GeneratorPearl(Identity):
    """A pearl holding a generator: it cannot even be deep-copied."""

    def reset(self):
        self.ticks = (tick for tick in range(10 ** 6))
        return super().reset()

    def step(self, inputs):
        next(self.ticks)
        return super().step(inputs)


def generator_pearl_graph():
    graph = SystemGraph("generator-pearl")
    graph.add_source("src")
    graph.add_shell("A", _GeneratorPearl)
    graph.add_sink("out", stop_script=lambda c: c % 5 == 2)
    graph.add_edge("src", "A", relays=1)
    graph.add_edge("A", "out", relays=2)
    return graph


class TestPortability:
    """Checkpoints that cannot be copied or pickled cost speed, never
    bytes: the campaign falls back to from-reset experiments."""

    def _faults(self, graph):
        return generate_faults(graph, classes=CLASSES, cycles=CYCLES,
                               samples=16, seed=4)

    def test_uncopyable_pearl_runs_from_reset(self):
        graph = generator_pearl_graph()
        trunk = GoldenRun.capture(graph, ProtocolVariant.CASU, CYCLES,
                                  faults=self._faults(graph))
        assert trunk.forks is None
        assert (_forked(graph, self._faults(graph), ProtocolVariant.CASU,
                        CYCLES, True)
                == _from_reset(graph, self._faults(graph),
                               ProtocolVariant.CASU, CYCLES, True))

    def test_unpicklable_pearl_reaches_workers_and_disk(self, tmp_path,
                                                        capsys):
        graph = lambda_pearl_graph()
        faults = self._faults(graph)
        ref = GraphRef.from_factory(
            "tests.inject.test_forked_parity:lambda_pearl_graph")
        cache = ResultCache.disk(str(tmp_path / "cache"))
        report = run_campaign(graph, cycles=CYCLES, faults=faults,
                              strict=True, jobs=2, graph_ref=ref,
                              cache=cache)
        assert ([r.to_dict() for r in report.results]
                == _from_reset(graph, faults, ProtocolVariant.CASU, CYCLES,
                               True))
        assert capsys.readouterr().err == ""
        assert not list((tmp_path / "cache").glob("*.pkl"))


#: ``repro-lid inject`` output of the campaign below, generated by the
#: from-reset campaign runner this forked one replaced; it witnesses
#: all five verdicts (9 / 17 / 29 / 5 / 4).
PARENT_REPORT = (Path(__file__).parent / "data"
                 / "lid-figure2r2-strict-seed11.json")
PARENT_ARGV = ["inject", "--topology", "figure2:relays=2", "--cycles",
               "112", "--samples", "64", "--faults",
               "stop,void,phantom,payload,drop,duplicate,delayed-stop,shell",
               "--strict", "--seed", "11", "--format", "json"]


#: The same for half relay stations under Carloni's protocol: a
#: ``dag`` with 8 half and 9 full stations (5 / 10 / 28 / 0 / 5).
HALF_CARLONI_REPORT = (Path(__file__).parent / "data"
                       / "lid-dag5-half-carloni-seed3.json")
HALF_CARLONI_ARGV = [
    "inject", "--topology", "dag:shells=5,half=0.5", "--variant",
    "carloni", "--cycles", "96", "--samples", "48", "--faults",
    "stop,void,phantom,payload,drop,duplicate,delayed-stop,shell",
    "--seed", "3", "--format", "json", "--no-cache"]


def test_committed_half_carloni_report(tmp_path):
    """Serially and at ``--jobs 2`` (the CI ``inject-smoke`` job
    ``cmp``s the same two)."""
    for index, extra in enumerate(([], ["--jobs", "2"])):
        out = tmp_path / f"report-{index}.json"
        assert main(HALF_CARLONI_ARGV + extra + ["-o", str(out)]) == 0
        assert out.read_bytes() == HALF_CARLONI_REPORT.read_bytes()


def test_committed_parent_report(tmp_path, capsys):
    """The same bytes serially, at ``--jobs 2`` and from a warm trunk
    cache (the CI ``inject-smoke`` job ``cmp``s the same three)."""
    cache = str(tmp_path / "cache")
    runs = (["--no-cache"], ["--jobs", "2", "--cache-dir", cache],
            ["--jobs", "2", "--cache-dir", cache])
    for index, extra in enumerate(runs):
        out = tmp_path / f"report-{index}.json"
        assert main(PARENT_ARGV + extra + ["-o", str(out)]) == 0
        assert out.read_bytes() == PARENT_REPORT.read_bytes()
    assert "cache-hits=1" in capsys.readouterr().out.splitlines()[-1]
