"""High-level container for building and running LID systems.

:class:`LidSystem` wraps a :class:`~repro.kernel.scheduler.Simulator`
and offers the vocabulary of the paper: add shells around pearls, add
sources/sinks at the primary I/Os, and connect ports with channels that
carry a configurable chain of relay stations.  ``connect(..., relays=2)``
inserts two full relay stations, i.e. a wire whose traversal takes two
extra clock cycles — exactly how the paper models long interconnect.

The container also exposes the *zero-latency reference run* used by the
latency-equivalence tests: the same pearls wired with ideal channels and
no protocol (see :meth:`reference_outputs`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..errors import StructuralError
from ..kernel.scheduler import Simulator
from ..kernel.trace import Trace
from .channel import Channel
from .endpoints import Sink, Source
from .lint import check_shell_to_shell, settle_order
from .relay import HalfRelayStation, RelayStation, _RelayBase
from .shell import Shell
from .token import Token
from .variant import DEFAULT_VARIANT, ProtocolVariant

#: Specification of one relay station in a channel chain.
#: "full" -> RelayStation; "half" -> HalfRelayStation;
#: "half-registered" -> the registered-stop ablation variant.
RelaySpec = str


class LidSystem:
    """A latency-insensitive system under construction / simulation."""

    def __init__(self, name: str = "lid",
                 variant: ProtocolVariant = DEFAULT_VARIANT):
        self.name = name
        self.variant = variant
        self.sim = Simulator(name)
        self.shells: Dict[str, Shell] = {}
        self.sources: Dict[str, Source] = {}
        self.sinks: Dict[str, Sink] = {}
        self.relays: Dict[str, _RelayBase] = {}
        self.channels: List[Channel] = []
        self._finalized = False
        self._strict = True
        self._channel_counter = 0
        self.telemetry = None

    # -- block creation ----------------------------------------------------

    def add_shell(self, name: str, pearl) -> Shell:
        self._check_fresh_name(name)
        shell = Shell(name, pearl, variant=self.variant)
        self.shells[name] = shell
        self.sim.add_component(shell)
        return shell

    def add_queued_shell(self, name: str, pearl,
                         queue_depth: int = 2) -> Shell:
        """A shell with input FIFOs and registered stop (see
        :class:`~repro.lid.queued_shell.QueuedShell`)."""
        from .queued_shell import QueuedShell

        self._check_fresh_name(name)
        shell = QueuedShell(name, pearl, variant=self.variant,
                            queue_depth=queue_depth)
        self.shells[name] = shell
        self.sim.add_component(shell)
        return shell

    def add_source(self, name: str,
                   stream: Optional[Iterator[Token]] = None) -> Source:
        self._check_fresh_name(name)
        source = Source(name, stream=stream, variant=self.variant)
        self.sources[name] = source
        self.sim.add_component(source)
        return source

    def add_sink(self, name: str, stop_script=None) -> Sink:
        self._check_fresh_name(name)
        sink = Sink(name, stop_script=stop_script, variant=self.variant)
        self.sinks[name] = sink
        self.sim.add_component(sink)
        return sink

    def _check_fresh_name(self, name: str) -> None:
        if name in self.shells or name in self.sources or name in self.sinks \
                or name in self.relays:
            raise StructuralError(f"duplicate block name {name!r}")

    # -- wiring --------------------------------------------------------------

    def _new_channel(self, label: str) -> Channel:
        self._channel_counter += 1
        chan = Channel.create(self.sim, f"{label}#{self._channel_counter}")
        self.channels.append(chan)
        return chan

    def _make_relay(self, spec: RelaySpec, name: str) -> _RelayBase:
        if spec == "full":
            relay: _RelayBase = RelayStation(name, variant=self.variant)
        elif spec == "half":
            relay = HalfRelayStation(name, variant=self.variant)
        elif spec == "half-registered":
            relay = HalfRelayStation(name, variant=self.variant,
                                     registered_stop=True)
        else:
            from ..graph.model import validate_relay_spec

            validate_relay_spec(spec, where=f"relay {name}")  # raises
            raise StructuralError(f"unknown relay spec {spec!r}")
        self.relays[name] = relay
        self.sim.add_component(relay)
        return relay

    def replace_relay(self, name: str, station) -> None:
        """Swap relay station *name* for *station*, which takes over
        its channels (e.g. a gate-level netlist of the same kind).

        The system counts as unfinalized again, so the next
        :meth:`run` repeats the lint and derives the settle order with
        *station* in it.
        """
        old = self.relays[name]
        station.input = old.input
        station.output = old.output
        self.relays[name] = station
        self.sim.replace_component(old, station)
        self._finalized = False

    def connect(
        self,
        producer: Union[Shell, Source],
        consumer: Union[Shell, Sink],
        producer_port: Optional[str] = None,
        consumer_port: Optional[str] = None,
        relays: Union[int, Sequence[RelaySpec]] = 0,
    ) -> List[Channel]:
        """Connect two blocks through a chain of relay stations.

        *relays* is either an integer (that many **full** relay
        stations) or an explicit sequence of specs drawn from
        ``"full"``, ``"half"`` and ``"half-registered"``, listed from
        producer to consumer.  Returns the created channels, producer
        side first.
        """
        if isinstance(relays, int):
            specs: List[RelaySpec] = ["full"] * relays
        else:
            specs = list(relays)

        label = f"{producer.name}->{consumer.name}"
        chain: List[Channel] = [self._new_channel(label)]
        self._bind_producer(producer, producer_port, chain[0])

        for index, spec in enumerate(specs):
            relay_name = f"{label}.rs{index}#{self._channel_counter}"
            relay = self._make_relay(spec, relay_name)
            next_chan = self._new_channel(label)
            relay.connect(chain[-1], next_chan)
            chain.append(next_chan)

        self._bind_consumer(consumer, consumer_port, chain[-1])
        return chain

    def _bind_producer(self, block, port: Optional[str], chan: Channel) -> None:
        if isinstance(block, Shell):
            if port is None:
                ports = list(block.pearl.output_ports)
                if len(ports) != 1:
                    raise StructuralError(
                        f"{block.name}: producer_port required "
                        f"(outputs: {ports})"
                    )
                port = ports[0]
            block.connect_output(port, chan)
        elif isinstance(block, Source):
            block.connect(chan)
        else:
            raise StructuralError(
                f"{block!r} cannot drive a channel (need Shell or Source)"
            )

    def _bind_consumer(self, block, port: Optional[str], chan: Channel) -> None:
        if isinstance(block, Shell):
            if port is None:
                ports = list(block.pearl.input_ports)
                if len(ports) != 1:
                    raise StructuralError(
                        f"{block.name}: consumer_port required "
                        f"(inputs: {ports})"
                    )
                port = ports[0]
            block.connect_input(port, chan)
        elif isinstance(block, Sink):
            block.connect(chan)
        else:
            raise StructuralError(
                f"{block!r} cannot consume a channel (need Shell or Sink)"
            )

    # -- execution -----------------------------------------------------------

    def finalize(self, strict: bool = True) -> None:
        """Check wiring, run the structural lint and fix the settle
        order.

        With ``strict=True`` (default) the lint enforces the paper's
        implementation rules: at least one relay station between any two
        shells, and no combinational stop cycles.  The walk that looks
        for stop cycles also orders the blocks for the kernel's one-pass
        settle; a system with a stop cycle, which only ``strict=False``
        admits, settles by the kernel's fixpoint instead.
        """
        for block in self._all_blocks():
            block.check_wiring()
        if strict:
            check_shell_to_shell(self)
        self.sim.set_settle_order(settle_order(self, strict=strict))
        self._strict = strict
        self._finalized = True

    def _all_blocks(self):
        for group in (self.shells, self.sources, self.sinks, self.relays):
            yield from group.values()

    def run(self, cycles: int, reset: bool = True) -> None:
        """Simulate for *cycles* clock cycles (finalizing lazily, with
        the strictness of the last :meth:`finalize`)."""
        if not self._finalized:
            self.finalize(strict=self._strict)
        if reset:
            self.sim.reset()
        self.sim.step(cycles)

    def trace(self, signal_names: Iterable[str]) -> Trace:
        """Attach a trace to named signals (before calling :meth:`run`)."""
        return Trace(self.sim, signal_names)

    def trace_channels(self, channels: Iterable[Channel]) -> Trace:
        """Attach a trace covering data/valid/stop of the given channels."""
        signals = []
        for chan in channels:
            signals.extend([chan.data, chan.valid, chan.stop])
        return Trace(self.sim, signals)

    # -- telemetry --------------------------------------------------------------

    def attach_telemetry(self, telemetry) -> "LidSystem":
        """Wire a :class:`~repro.obs.Telemetry` through the whole system.

        * the kernel profiler receives per-phase wall times;
        * shells/sinks emit ``token`` events, relay stations emit
          ``relay/occupancy`` events, monitors emit
          ``monitor/violation`` events (all via the simulator handle);
        * a sampling hook accumulates per-channel stall cycles and
          per-relay occupancy histograms into the metrics registry and
          traces ``stall/assert`` events.

        Attach before :meth:`run`; returns ``self`` for chaining.
        """
        self.telemetry = telemetry
        self.sim.attach_telemetry(telemetry)
        if telemetry.metrics is not None or telemetry.events is not None:
            self.sim.add_cycle_hook(self._sample_telemetry)
        return self

    def _sample_telemetry(self, sim: Simulator) -> None:
        """Cycle hook: sample settled stop wires and relay fill levels."""
        telemetry = self.telemetry
        metrics = telemetry.metrics
        events = telemetry.events
        for chan in self.channels:
            if chan.stop.value:
                if metrics is not None:
                    metrics.counter(
                        f"lid/channel/{chan.name}/stall_cycles").inc()
                if events is not None:
                    events.emit("stall", "assert", sim.cycle,
                                channel=chan.name,
                                valid=bool(chan.valid.value))
        if metrics is not None:
            for name, relay in self.relays.items():
                metrics.histogram(
                    f"lid/relay/{name}/occupancy").observe(
                        relay.occupancy)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Deterministic metrics snapshot of the run so far.

        Folds the live block counters (shell fires and rates, sink
        deliveries) into the attached registry — or a
        fresh one when no telemetry is attached — and returns
        :meth:`~repro.obs.MetricsRegistry.snapshot`.
        """
        from ..obs import MetricsRegistry

        registry = (self.telemetry.metrics
                    if self.telemetry is not None
                    and self.telemetry.metrics is not None
                    else MetricsRegistry())
        cycles = self.sim.cycle
        registry.gauge("lid/cycles").set(cycles)
        for name, shell in self.shells.items():
            registry.gauge(f"lid/shell/{name}/fires").set(
                shell.fire_count)
            registry.gauge(f"lid/shell/{name}/fire_rate").set(
                shell.fire_count / cycles if cycles else 0.0)
        for name, sink in self.sinks.items():
            registry.gauge(f"lid/sink/{name}/accepts").set(
                len(sink.received))
        return registry.snapshot()

    # -- reference model -------------------------------------------------------

    def reference_outputs(self, cycles: int) -> Dict[str, List[Any]]:
        """Run the zero-latency reference system and return sink payloads.

        The reference wires the same pearls together with ideal
        channels: every module fires every cycle and sources never run
        dry; this is Carloni's *strictly synchronous* base system.  The
        LID system is correct iff, per sink, its valid-payload stream is
        a prefix-equal projection of this reference stream (latency
        equivalence).  The reference is rebuilt from the recorded
        wiring, so call it on a fully connected system only.
        """
        from .reference import run_reference

        return run_reference(self, cycles)

    # -- metrics ----------------------------------------------------------------

    def sink_throughputs(self, cycles: int, warmup: int = 0) -> Dict[str, float]:
        return {
            name: sink.steady_throughput(warmup, cycles)
            for name, sink in self.sinks.items()
        }

    def stats(self) -> Dict[str, Any]:
        """Run summary: firings, deliveries, occupancies.

        Call after :meth:`run`; the dictionary is JSON-compatible and
        convenient for experiment logs.
        """
        cycles = self.sim.cycle
        relay_occupancy = {
            name: relay.occupancy for name, relay in self.relays.items()
        }
        return {
            "cycles": cycles,
            "shell_firings": {
                name: shell.fire_count
                for name, shell in self.shells.items()
            },
            "shell_utilization": {
                name: (shell.fire_count / cycles if cycles else 0.0)
                for name, shell in self.shells.items()
            },
            "sink_deliveries": {
                name: len(sink.received)
                for name, sink in self.sinks.items()
            },
            "relay_occupancy": relay_occupancy,
            "buffered_tokens": sum(relay_occupancy.values()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LidSystem({self.name!r}, shells={len(self.shells)}, "
            f"relays={len(self.relays)}, sources={len(self.sources)}, "
            f"sinks={len(self.sinks)})"
        )
