"""Abstract system graphs: simulator-independent topology descriptions.

The paper reasons about LID systems as *"a direct, possibly cyclic graph
associated to a system of interconnected synchronous processes"*.  A
:class:`SystemGraph` captures exactly that: shells (with pearl
factories), sources, sinks, and edges annotated with relay-station
chains.  The same graph object feeds

* :meth:`SystemGraph.elaborate` — builds a live
  :class:`~repro.lid.system.LidSystem` for full simulation;
* :mod:`repro.skeleton` — the valid/stop-only fast simulator;
* :mod:`repro.analysis` — the closed-form and minimum-cycle-ratio
  throughput analyses;
* :mod:`repro.graph.transform` — path equalization and deadlock cures.

Pearls are stored as zero-argument *factories* so a graph can be
elaborated many times (different variants, before/after transforms)
with fresh pearl state each time.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import StructuralError

#: Relay chain entry: "full", "half", or "half-registered".
RelaySpec = str

#: Every node lives in a clock domain; this is the implicit default
#: (rate 1/1), which keeps pre-GALS graphs — and their fingerprints —
#: byte-identical.
DEFAULT_DOMAIN = "core"


def as_rate(rate: Union[Fraction, int, str, Tuple[int, int]],
            where: Optional[str] = None) -> Fraction:
    """Normalize a clock rate to an exact ``Fraction`` in ``(0, 1]``.

    Accepts a ``Fraction``, an ``int``, a ``"p/q"`` string, or a
    ``(p, q)`` pair.  Rates are relative to the base (fastest) clock,
    so ``Fraction(1)`` is full speed and ``Fraction(1, 2)`` ticks every
    other base cycle.
    """
    location = f" for {where}" if where else ""
    try:
        if isinstance(rate, tuple):
            value = Fraction(*rate)
        else:
            value = Fraction(rate)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise StructuralError(
            f"bad clock rate {rate!r}{location}: {exc}")
    if not 0 < value <= 1:
        raise StructuralError(
            f"clock rate {rate!r}{location} out of range: rates are "
            f"relative to the base clock and must satisfy 0 < rate <= 1")
    return value

VALID_RELAY_SPECS = ("full", "half", "half-registered")

#: Which protocol variants support each relay spec (by enum value).
#: Today both variants implement all three stations; the table exists
#: so the single validation point below can name the supporting
#: variants in its error, and so a future variant with a narrower
#: station set only has to edit one row.
RELAY_SPEC_SUPPORT = {
    "full": ("carloni", "casu"),
    "half": ("carloni", "casu"),
    "half-registered": ("carloni", "casu"),
}


def validate_relay_spec(spec: str, where: Optional[str] = None) -> str:
    """The one relay-spec validity check (graph, IR and lid all call it).

    Raises :class:`~repro.errors.StructuralError` naming the offending
    spec, the location (*where*, e.g. ``"edge A->B"``) and the valid
    specs with the variants that support them.
    """
    if spec in VALID_RELAY_SPECS:
        return spec
    choices = "; ".join(
        f"{valid} [variants: {', '.join(RELAY_SPEC_SUPPORT[valid])}]"
        for valid in VALID_RELAY_SPECS)
    location = f" on {where}" if where else ""
    raise StructuralError(
        f"unknown relay spec {spec!r}{location} (valid specs: {choices})")


@dataclasses.dataclass(frozen=True)
class BridgeSpec:
    """Parameters of one bisynchronous-FIFO clock-domain bridge.

    ``depth`` is the FIFO capacity in tokens.  ``write_rate`` /
    ``read_rate`` are the clock rates of the producer / consumer sides;
    they default to the rates of the domains the edge connects and are
    filled in (and cross-checked) by :meth:`SystemGraph.add_edge`.
    """

    depth: int = 2
    write_rate: Optional[Fraction] = None
    read_rate: Optional[Fraction] = None


def validate_bridge_spec(spec: Union[BridgeSpec, int],
                         where: Optional[str] = None) -> BridgeSpec:
    """The one bridge-spec validity check (graph and IR both call it).

    Mirrors :func:`validate_relay_spec`: raises
    :class:`~repro.errors.StructuralError` naming the offending
    parameter and the location.  An ``int`` is shorthand for
    ``BridgeSpec(depth=n)``.
    """
    location = f" on {where}" if where else ""
    if isinstance(spec, int) and not isinstance(spec, bool):
        spec = BridgeSpec(depth=spec)
    if not isinstance(spec, BridgeSpec):
        raise StructuralError(
            f"bad bridge spec {spec!r}{location} (expected a BridgeSpec "
            f"or an int FIFO depth)")
    if not isinstance(spec.depth, int) or spec.depth < 1:
        raise StructuralError(
            f"bridge depth must be an int >= 1, got "
            f"{spec.depth!r}{location}")
    normalized = {}
    for label in ("write_rate", "read_rate"):
        rate = getattr(spec, label)
        if rate is not None:
            normalized[label] = as_rate(
                rate, where=f"bridge {label}{location}")
    if normalized:
        spec = dataclasses.replace(spec, **normalized)
    return spec


@dataclasses.dataclass
class Node:
    """One block of the system graph.

    ``queue_depth`` marks a shell as a queued shell (input FIFOs with
    registered stop, see :class:`repro.lid.queued_shell.QueuedShell`);
    ``None`` means the paper's plain shell.
    """

    name: str
    kind: str  # "shell" | "source" | "sink"
    pearl_factory: Optional[Callable[[], Any]] = None
    stream_factory: Optional[Callable[[], Any]] = None
    stop_script: Optional[Callable[[int], bool]] = None
    queue_depth: Optional[int] = None
    domain: str = DEFAULT_DOMAIN

    def __post_init__(self):
        if self.kind not in ("shell", "source", "sink"):
            raise StructuralError(f"unknown node kind {self.kind!r}")
        if self.kind == "shell" and self.pearl_factory is None:
            raise StructuralError(f"shell {self.name!r} needs a pearl factory")
        if self.queue_depth is not None:
            if self.kind != "shell":
                raise StructuralError(
                    f"{self.name!r}: only shells can be queued")
            if self.queue_depth < 1:
                raise StructuralError(
                    f"{self.name!r}: queue_depth must be >= 1")


@dataclasses.dataclass
class Edge:
    """One connection, with its relay-station chain."""

    src: str
    dst: str
    src_port: Optional[str] = None
    dst_port: Optional[str] = None
    relays: Tuple[RelaySpec, ...] = ()
    bridge: Optional[BridgeSpec] = None

    def __post_init__(self):
        self.relays = tuple(self.relays)
        for spec in self.relays:
            validate_relay_spec(spec, where=f"edge {self.src}->{self.dst}")
        if self.bridge is not None:
            self.bridge = validate_bridge_spec(
                self.bridge, where=f"edge {self.src}->{self.dst}")

    @property
    def relay_count(self) -> int:
        return len(self.relays)

    def key(self) -> Tuple[str, Optional[str], str, Optional[str]]:
        return (self.src, self.src_port, self.dst, self.dst_port)


class SystemGraph:
    """A buildable, analyzable description of a LID system."""

    def __init__(self, name: str = "system"):
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.edges: List[Edge] = []
        #: Clock domains by name; every graph starts with the implicit
        #: base-rate default domain.
        self.domains: Dict[str, Fraction] = {DEFAULT_DOMAIN: Fraction(1)}

    # -- construction ------------------------------------------------------

    def add_domain(self, name: str, rate) -> Fraction:
        """Register clock domain *name* at rational *rate* (≤ 1).

        Re-registering an existing domain with the same rate is a
        no-op; a different rate is an error.  Nodes join a domain via
        the ``domain=`` argument of the add_* builders.
        """
        value = as_rate(rate, where=f"domain {name!r}")
        existing = self.domains.get(name)
        if existing is not None and existing != value:
            raise StructuralError(
                f"domain {name!r} already registered at rate {existing} "
                f"(got {value})")
        self.domains[name] = value
        return value

    def domain_rate(self, node_name: str) -> Fraction:
        """The clock rate of the domain *node_name* lives in."""
        return self.domains[self.nodes[node_name].domain]

    def is_single_clock(self) -> bool:
        """True when every node runs at base rate and no edge bridges."""
        return (all(self.domains[n.domain] == 1
                    for n in self.nodes.values())
                and all(e.bridge is None for e in self.edges))

    def add_shell(self, name: str, pearl_factory: Callable[[], Any],
                  domain: str = DEFAULT_DOMAIN) -> Node:
        return self._add_node(Node(name, "shell",
                                   pearl_factory=pearl_factory,
                                   domain=domain))

    def add_queued_shell(self, name: str,
                         pearl_factory: Callable[[], Any],
                         queue_depth: int = 2,
                         domain: str = DEFAULT_DOMAIN) -> Node:
        return self._add_node(Node(name, "shell",
                                   pearl_factory=pearl_factory,
                                   queue_depth=queue_depth,
                                   domain=domain))

    def add_source(self, name: str, stream_factory=None,
                   domain: str = DEFAULT_DOMAIN) -> Node:
        return self._add_node(Node(name, "source",
                                   stream_factory=stream_factory,
                                   domain=domain))

    def add_sink(self, name: str, stop_script=None,
                 domain: str = DEFAULT_DOMAIN) -> Node:
        return self._add_node(Node(name, "sink", stop_script=stop_script,
                                   domain=domain))

    def _add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise StructuralError(f"duplicate node name {node.name!r}")
        if node.domain not in self.domains:
            raise StructuralError(
                f"{node.name!r}: unknown clock domain {node.domain!r} "
                f"(registered: {sorted(self.domains)}; use "
                f"add_domain(name, rate) first)")
        self.nodes[node.name] = node
        return node

    def add_edge(
        self,
        src: str,
        dst: str,
        relays: Iterable[RelaySpec] | int = (),
        src_port: Optional[str] = None,
        dst_port: Optional[str] = None,
        bridge: Optional[Union[BridgeSpec, int]] = None,
    ) -> Edge:
        """Connect *src* to *dst* with the given relay chain.

        *relays* may be an integer (that many full relay stations) or an
        explicit spec sequence, producer side first.  An edge whose
        endpoints live in different clock domains must carry a
        *bridge* — a :class:`BridgeSpec` (or an int FIFO depth); the
        bridge sits after the relay chain, directly before *dst*.
        """
        for name in (src, dst):
            if name not in self.nodes:
                raise StructuralError(f"unknown node {name!r}")
        if self.nodes[src].kind == "sink":
            raise StructuralError(f"sink {src!r} cannot produce")
        if self.nodes[dst].kind == "source":
            raise StructuralError(f"source {dst!r} cannot consume")
        if isinstance(relays, int):
            relays = ("full",) * relays
        src_dom = self.nodes[src].domain
        dst_dom = self.nodes[dst].domain
        where = f"edge {src}->{dst}"
        if src_dom != dst_dom:
            if bridge is None:
                raise StructuralError(
                    f"{where} crosses clock domains {src_dom!r} "
                    f"(rate {self.domains[src_dom]}) -> {dst_dom!r} "
                    f"(rate {self.domains[dst_dom]}) and must carry a "
                    f"bisynchronous FIFO bridge: pass "
                    f"bridge=BridgeSpec(depth=...) or bridge=<depth>")
            bridge = validate_bridge_spec(bridge, where=where)
            for label, dom in (("write_rate", src_dom),
                               ("read_rate", dst_dom)):
                given = getattr(bridge, label)
                if given is not None and given != self.domains[dom]:
                    raise StructuralError(
                        f"{where}: bridge {label} {given} contradicts "
                        f"domain {dom!r} rate {self.domains[dom]}")
            bridge = dataclasses.replace(
                bridge, write_rate=self.domains[src_dom],
                read_rate=self.domains[dst_dom])
        elif bridge is not None:
            raise StructuralError(
                f"{where} stays inside clock domain {src_dom!r}; "
                f"bridges belong only on domain-crossing edges")
        edge = Edge(src, dst, src_port, dst_port, tuple(relays),
                    bridge=bridge)
        self.edges.append(edge)
        return edge

    # -- queries ---------------------------------------------------------

    def shells(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.kind == "shell"]

    def sources(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.kind == "source"]

    def sinks(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.kind == "sink"]

    def out_edges(self, name: str) -> List[Edge]:
        return [e for e in self.edges if e.src == name]

    def in_edges(self, name: str) -> List[Edge]:
        return [e for e in self.edges if e.dst == name]

    def relay_count(self, kind: Optional[str] = None) -> int:
        """Total relay stations, optionally of one spec kind."""
        total = 0
        for edge in self.edges:
            if kind is None:
                total += len(edge.relays)
            else:
                total += sum(1 for s in edge.relays if s == kind)
        return total

    def to_networkx(self):
        """Block-level ``networkx.MultiDiGraph`` (edge data: the :class:`Edge`).

        The one use of networkx in the package, for interop; it is
        imported here, on demand, and is not a runtime dependency.
        """
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for node in self.nodes.values():
            g.add_node(node.name, kind=node.kind)
        for edge in self.edges:
            g.add_edge(edge.src, edge.dst, edge=edge)
        return g

    def shell_cycles(self) -> List[List[str]]:
        """Simple cycles of the block graph (each a list of node names).

        These are the paper's "loops of shells and relay stations"; the
        feedback-throughput formula and the deadlock criteria quantify
        over them.  Delegates to the memoized lowering, so repeated
        analysis passes share one walk.
        """
        from ..ir import lower

        return lower(self).shell_cycles()

    def is_feedforward(self) -> bool:
        """True when the block graph is acyclic (tree or reconvergent)."""
        from ..ir import lower

        return lower(self).is_feedforward()

    def loop_census(self, cycle: Sequence[str]) -> Tuple[int, int]:
        """``(S, R)`` for one cycle: shells and relay stations on it.

        *cycle* is a list of node names forming a directed cycle.  When
        parallel edges exist between consecutive nodes, the one with the
        fewest relay stations is counted (the protocol's tokens can take
        any of them; the analysis formulas use per-loop counts).
        """
        from ..ir import lower

        return lower(self).loop_census(cycle)

    def validate(self) -> None:
        """Structural sanity: ports exist, shells fully connected."""
        for edge in self.edges:
            self._check_port(edge.src, edge.src_port, output=True)
            self._check_port(edge.dst, edge.dst_port, output=False)
        for node in self.shells():
            pearl = node.pearl_factory()
            in_ports = {e.dst_port or self._only_port(pearl, False)
                        for e in self.in_edges(node.name)}
            out_ports = {e.src_port or self._only_port(pearl, True)
                         for e in self.out_edges(node.name)}
            missing_in = set(pearl.input_ports) - in_ports
            missing_out = set(pearl.output_ports) - out_ports
            if missing_in or missing_out:
                raise StructuralError(
                    f"shell {node.name!r}: unconnected ports "
                    f"(inputs {sorted(missing_in)}, outputs {sorted(missing_out)})"
                )

    def _check_port(self, name: str, port: Optional[str], output: bool) -> None:
        node = self.nodes[name]
        if node.kind != "shell":
            return
        pearl = node.pearl_factory()
        ports = pearl.output_ports if output else pearl.input_ports
        if port is None:
            if len(ports) != 1:
                raise StructuralError(
                    f"{name!r}: port name required (choices: {list(ports)})"
                )
        elif port not in ports:
            raise StructuralError(
                f"{name!r}: no {'output' if output else 'input'} port {port!r}"
            )

    @staticmethod
    def _only_port(pearl, output: bool) -> str:
        ports = pearl.output_ports if output else pearl.input_ports
        return ports[0]

    # -- elaboration -----------------------------------------------------

    def elaborate(self, variant=None, strict: bool = True):
        """Build a runnable :class:`~repro.lid.system.LidSystem`.

        Every call produces a fresh system with fresh pearls, so graphs
        double as reusable experiment specifications.  Construction
        goes through the canonical lowering
        (:func:`repro.ir.lower`), like every other backend.
        """
        from ..ir import lower

        return lower(self).elaborate(variant=variant, strict=strict)

    def __getstate__(self):
        # The lowering memo (repro.ir.lower) must not travel with
        # pickled graphs: it holds derived tables and lazy caches that
        # would bloat GraphRef payloads; workers re-lower on demand.
        state = self.__dict__.copy()
        state.pop("_lowered_cache", None)
        return state

    def copy(self, name: Optional[str] = None) -> "SystemGraph":
        """Shallow-copy the topology (factories are shared)."""
        dup = SystemGraph(name or self.name)
        dup.domains = dict(self.domains)
        for node in self.nodes.values():
            dup._add_node(dataclasses.replace(node))
        for edge in self.edges:
            dup.edges.append(dataclasses.replace(edge))
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SystemGraph({self.name!r}, nodes={len(self.nodes)}, "
            f"edges={len(self.edges)}, relays={self.relay_count()})"
        )
