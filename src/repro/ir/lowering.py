"""Lowering: one canonical construction path from graph to backends.

Every backend used to re-walk the :class:`~repro.graph.model.SystemGraph`
and re-expand relay chains with private logic — lid elaboration, the
scalar skeleton, the batch skeleton and the analysis walkers each
had their own copy of "edge -> relay chain -> wire segments".  A
:class:`LoweredSystem` is that expansion done once: frozen,
integer-indexed node/edge/relay/hop tables, produced by the single
:func:`lower` entry point and consumed by all four paths.

The tables replicate the historical scalar-builder expansion *exactly*
(edge order, relay-station names ``"A->B.rs0"``, hop names ``"A->B[0]"``
with ``~n`` duplicate suffixes, shell out-register allocation order), so
switching a backend from its private walk to the IR is bit-invisible:
the differential conformance suite and the golden-result tests hold to
the byte.

A lowering also carries a canonical, content-addressed **structural
fingerprint** (see :func:`structural_fingerprint`): nodes and edges in
sorted canonical order, independent of pickle details or declaration
order, stable across Python versions.  ``repro.exec`` keys its result
cache and by-value :class:`~repro.exec.graphs.GraphRef` identity on it.

Lowerings are memoized per graph object, guarded by a cheap structural
signature — mutating a graph in place (e.g. editing ``edge.relays``)
invalidates the memo on the next :func:`lower` call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import StructuralError
from ..graph.model import (
    DEFAULT_DOMAIN,
    SystemGraph,
    validate_bridge_spec,
    validate_relay_spec,
)

__all__ = [
    "SRC",
    "SHELL",
    "SINK",
    "RS_FULL",
    "RS_HALF",
    "RS_HALF_REG",
    "RS_BRIDGE",
    "RS_KIND_TAG",
    "IRNode",
    "IREdge",
    "IRRelay",
    "IRHop",
    "IRDomain",
    "IRBridge",
    "LoweredSystem",
    "LowerStats",
    "STATS",
    "firing_schedule",
    "lower",
    "structural_fingerprint",
]

#: Element kind tags, kept as small ints for compact state tuples.
#: The numbering is part of the conformance contract: the skeleton
#: engines store these in their dispatch tables and state snapshots.
#: ``RS_BRIDGE`` is the bisynchronous-FIFO clock-domain bridge — a
#: relay-like hop element that appears only on domain-crossing edges.
SRC, SHELL, SINK, RS_FULL, RS_HALF, RS_HALF_REG, RS_BRIDGE = range(7)

RS_KIND_TAG = {
    "full": RS_FULL,
    "half": RS_HALF,
    "half-registered": RS_HALF_REG,
}


def firing_schedule(rate: Fraction, hyperperiod: int) -> Tuple[bool, ...]:
    """Which base cycles a domain at *rate* ticks on, over *hyperperiod*.

    A domain at rate ``p/q`` is enabled on base cycle ``c`` iff
    ``floor((c+1)*p/q) > floor(c*p/q)`` — the canonical evenly-spread
    rational schedule (``q`` must divide *hyperperiod*).  Rate 1 is
    enabled everywhere, so single-clock systems degenerate exactly to
    the pre-GALS semantics.
    """
    p, q = rate.numerator, rate.denominator
    return tuple(
        ((c + 1) * p) // q > (c * p) // q for c in range(hyperperiod))

#: Version tag folded into every structural fingerprint.  Bump when the
#: canonical serialization below changes meaning.
IR_FINGERPRINT_VERSION = "repro-ir/v1"

#: Name of the per-graph memo attribute (excluded from graph pickling
#: by ``SystemGraph.__getstate__``).
_MEMO_ATTR = "_lowered_cache"


@dataclasses.dataclass
class LowerStats:
    """Process-wide lowering counters (plan-reuse instrumentation)."""

    lowerings: int = 0
    memo_hits: int = 0

    def reset(self) -> None:
        self.lowerings = 0
        self.memo_hits = 0


#: Global counters: how often a full lowering ran vs. was served from
#: the per-graph memo.  ``benchmarks/bench_ir_plan_reuse.py`` uses this
#: to show campaigns build one plan, not one per fault.
STATS = LowerStats()


@dataclasses.dataclass(frozen=True)
class IRNode:
    """One block of the lowered system (index = position in the table)."""

    index: int
    name: str
    kind: str  # "shell" | "source" | "sink"
    queue_depth: Optional[int] = None
    pearl_factory: Optional[Callable[[], Any]] = None
    stream_factory: Optional[Callable[[], Any]] = None
    stop_script: Optional[Callable[[int], bool]] = None


@dataclasses.dataclass(frozen=True)
class IREdge:
    """One connection with its (validated) relay chain.

    ``src``/``dst`` are node-table indices; the names and ports are
    carried alongside so consumers never need the source graph.
    """

    index: int
    src: int
    dst: int
    src_name: str
    dst_name: str
    src_port: Optional[str]
    dst_port: Optional[str]
    relays: Tuple[str, ...]
    #: Bridge-table index for domain-crossing edges, else ``None``.
    bridge: Optional[int] = None

    @property
    def relay_count(self) -> int:
        return len(self.relays)


@dataclasses.dataclass(frozen=True)
class IRRelay:
    """One expanded relay station on an edge's chain."""

    index: int
    edge: int      # IREdge index
    pos: int       # position on the chain, producer side first
    spec: str
    tag: int       # RS_FULL | RS_HALF | RS_HALF_REG
    name: str      # "A->B.rs0" — telemetry / diagnostics key


@dataclasses.dataclass(frozen=True)
class IRHop:
    """One producer->consumer wire segment of an expanded channel.

    ``producer_id``/``consumer_id`` index the kind-specific ordinal
    tables (shell ordinal, source ordinal, relay index, sink ordinal).
    ``producer_reg`` is the shell out-register id for segment-0 hops
    driven by a shell, else ``-1``.
    """

    index: int
    edge: int      # IREdge index
    seg: int       # segment position on the edge's chain
    name: str      # "A->B[0]" (+ "~n" duplicate suffix) — telemetry key
    producer_kind: int
    producer_id: int
    producer_reg: int
    consumer_kind: int
    consumer_id: int


@dataclasses.dataclass(frozen=True)
class IRDomain:
    """One clock domain: a rational rate and its firing schedule.

    ``schedule`` spans the system hyperperiod (lcm of all rate
    denominators); ``schedule[c % hyperperiod]`` says whether the
    domain ticks on base cycle ``c``.
    """

    index: int
    name: str
    rate: Fraction
    schedule: Tuple[bool, ...]


@dataclasses.dataclass(frozen=True)
class IRBridge:
    """One expanded bisynchronous-FIFO bridge on a domain-crossing edge.

    The bridge is the last element of the edge's hop chain (after any
    relay stations, directly before the consumer).  Its write port is
    clocked by ``src_domain``, its read port by ``dst_domain``
    (domain-table indices).
    """

    index: int
    edge: int          # IREdge index
    depth: int
    src_domain: int
    dst_domain: int
    name: str          # "A->B.bridge" — telemetry / fault-target key


@dataclasses.dataclass(frozen=True)
class LoweredSystem:
    """Frozen, normalized tables for one system graph.

    All sequence fields are tuples (of tuples) — a lowering is shared
    between backends and must never be mutated.  Derived structures
    (block digraph, desugared skeleton view) are computed lazily and
    cached on the instance.
    """

    name: str
    graph: SystemGraph                  # source graph (not part of identity)
    nodes: Tuple[IRNode, ...]
    edges: Tuple[IREdge, ...]
    relays: Tuple[IRRelay, ...]
    hops: Tuple[IRHop, ...]
    # Node-table indices per kind, in insertion order.
    shell_ids: Tuple[int, ...]
    source_ids: Tuple[int, ...]
    sink_ids: Tuple[int, ...]
    # Convenience name tables (ordinal-indexed, matching *_ids).
    shell_names: Tuple[str, ...]
    source_names: Tuple[str, ...]
    sink_names: Tuple[str, ...]
    relay_names: Tuple[str, ...]
    hop_names: Tuple[str, ...]
    # Port tables: hop ids per shell/source ordinal; one hop (or None)
    # per sink ordinal; one in/out hop per relay.
    shell_in_hops: Tuple[Tuple[int, ...], ...]
    shell_out_hops: Tuple[Tuple[int, ...], ...]
    source_out_hops: Tuple[Tuple[int, ...], ...]
    sink_in_hop: Tuple[Optional[int], ...]
    relay_in_hop: Tuple[int, ...]
    relay_out_hop: Tuple[int, ...]
    # Shell out registers, one per shell-driven edge, in allocation
    # order: (shell ordinal, edge index).
    shell_regs: Tuple[Tuple[int, int], ...]
    # Static capability / hazard flags.
    may_be_ambiguous: bool
    all_full_relays: bool
    has_queued_shells: bool
    #: Capability strings this system needs from a backend/variant
    #: (e.g. "relay-half", "queued-shell").
    requirements: frozenset
    #: Canonical content-addressed structural fingerprint (hex sha256).
    fingerprint: str
    # -- GALS clock-domain tables (degenerate for single-clock graphs) --
    #: Clock domains in first-use order; ``domains[0]`` need not be the
    #: default domain.
    domains: Tuple[IRDomain, ...] = ()
    #: Domain-table index per node-table index.
    node_domain: Tuple[int, ...] = ()
    #: lcm of all domain-rate denominators (1 for single-clock).
    hyperperiod: int = 1
    #: Expanded bisynchronous-FIFO bridges, one per crossing edge.
    bridges: Tuple[IRBridge, ...] = ()
    bridge_names: Tuple[str, ...] = ()
    #: Hop feeding each bridge's write port / driven by its read port.
    bridge_in_hop: Tuple[int, ...] = ()
    bridge_out_hop: Tuple[int, ...] = ()
    #: Capability flags backends key on: ``single_clock`` (every domain
    #: at base rate, no bridges) and ``has_bridges``.
    single_clock: bool = True
    has_bridges: bool = False

    # -- derived views (lazy, cached) -----------------------------------

    def skeleton_view(self) -> "LoweredSystem":
        """The lowering the skeleton/MCR consumers simulate.

        Queued shells are not modelled natively by the skeleton
        engines; they simulate the relay-station desugaring (see
        :func:`repro.graph.transform.desugar_queues`).  Returns ``self``
        when there is nothing to desugar.
        """
        if not self.has_queued_shells:
            return self
        cached = self.__dict__.get("_skeleton_view")
        if cached is None:
            from ..graph.transform import desugar_queues

            cached = lower(desugar_queues(self.graph))
            object.__setattr__(self, "_skeleton_view", cached)
        return cached

    def block_digraph(self):
        """Block-level ``nx.DiGraph`` (names as nodes). Treat read-only."""
        cached = self.__dict__.get("_block_digraph")
        if cached is None:
            import networkx as nx

            cached = nx.DiGraph()
            cached.add_nodes_from(n.name for n in self.nodes)
            for edge in self.edges:
                cached.add_edge(edge.src_name, edge.dst_name)
            object.__setattr__(self, "_block_digraph", cached)
        return cached

    # -- lookups ---------------------------------------------------------

    def node(self, name: str) -> IRNode:
        index = self._node_index().get(name)
        if index is None:
            raise StructuralError(f"{self.name}: no node named {name!r}")
        return self.nodes[index]

    def _node_index(self) -> Dict[str, int]:
        cached = self.__dict__.get("_name_to_index")
        if cached is None:
            cached = {n.name: n.index for n in self.nodes}
            object.__setattr__(self, "_name_to_index", cached)
        return cached

    def in_edges(self, name: str) -> List[IREdge]:
        return [e for e in self.edges if e.dst_name == name]

    def out_edges(self, name: str) -> List[IREdge]:
        return [e for e in self.edges if e.src_name == name]

    def relay_count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.relays)
        return sum(1 for r in self.relays if r.spec == kind)

    # -- graph walkers (shared by the analysis layer) --------------------

    def shell_cycles(self) -> List[List[str]]:
        """Simple cycles of the block graph (each a list of node names)."""
        import networkx as nx

        return [list(c) for c in nx.simple_cycles(nx.DiGraph(
            (e.src_name, e.dst_name) for e in self.edges))]

    def is_feedforward(self) -> bool:
        """True when the block graph is acyclic."""
        cached = self.__dict__.get("_feedforward")
        if cached is None:
            cached = not self.shell_cycles()
            object.__setattr__(self, "_feedforward", cached)
        return cached

    def loop_census(self, cycle: Sequence[str]) -> Tuple[int, int]:
        """``(S, R)`` for one cycle: shells and relay stations on it.

        With parallel edges between consecutive nodes the chain with
        the fewest relay stations is counted (tokens can take any).
        """
        shells = sum(1 for n in cycle if self.node(n).kind == "shell")
        relays = 0
        for i, name in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            candidates = [
                e.relay_count for e in self.edges
                if e.src_name == name and e.dst_name == nxt
            ]
            if not candidates:
                raise StructuralError(
                    f"no edge {name!r} -> {nxt!r} along claimed cycle")
            relays += min(candidates)
        return shells, relays

    # -- construction paths ---------------------------------------------

    def elaborate(self, variant=None, strict: bool = True):
        """Build a runnable :class:`~repro.lid.system.LidSystem`.

        Resolved through :mod:`repro._registry` — the IR layer never
        imports the lid layer (see docs/ir.md on layering).
        """
        if self.has_bridges or not self.single_clock:
            raise StructuralError(
                f"{self.name}: lid elaboration models single-clock "
                f"systems only (single_clock={self.single_clock}, "
                f"has_bridges={self.has_bridges}); GALS graphs run on "
                f"the skeleton engines — use "
                f"repro.skeleton.select(graph, backend='scalar'|"
                f"'bitsim')")
        from .._registry import resolve

        return resolve("lid.build_system")(
            self, variant=variant, strict=strict)

    def unsupported_specs(self, variant) -> List[str]:
        """Relay specs this *variant* does not support (normally empty).

        *variant* may be a :class:`~repro.lid.variant.ProtocolVariant`
        or its string value; the support table lives next to
        ``VALID_RELAY_SPECS`` in :mod:`repro.graph.model`.
        """
        from ..graph.model import RELAY_SPEC_SUPPORT

        variant_name = getattr(variant, "value", str(variant))
        return sorted({
            r.spec for r in self.relays
            if variant_name not in RELAY_SPEC_SUPPORT.get(r.spec, ())
        })


# -- fingerprint ---------------------------------------------------------


def structural_fingerprint(graph: SystemGraph) -> str:
    """Canonical sha256 of a graph's structure.

    Serialization (version-tagged ``repro-ir/v1``): nodes sorted by
    name as ``|node:<name>:<kind>:<queue_depth>``, then edges sorted by
    ``(src, src_port, dst, dst_port, relays)`` as
    ``|edge:<src>[<src_port>]-><dst>[<dst_port>]:<relay,specs>``.
    Declaration order, pickle bytes, attached callables and the graph's
    display *name* do not participate — two independently built
    identical topologies share a fingerprint, and the copy-renaming
    transforms (``"<name>_equalized"`` etc.) only register as changes
    when they actually touch structure (behavioural callables are
    hashed separately by :func:`repro.exec.cache.graph_fingerprint`).
    """
    return lower(graph).fingerprint


def _fingerprint(nodes: Tuple[IRNode, ...],
                 edges: Tuple[IREdge, ...],
                 domain_entries: Tuple[str, ...] = (),
                 bridge_entries: Tuple[str, ...] = ()) -> str:
    """Canonical sha256; GALS entries are appended only when present.

    ``domain_entries``/``bridge_entries`` are empty for single-clock
    graphs, so every pre-GALS fingerprint — and with it the exec cache
    keys and GraphRef identities — stays byte-identical under the
    unchanged ``repro-ir/v1`` tag.
    """
    hasher = hashlib.sha256()
    hasher.update(IR_FINGERPRINT_VERSION.encode())
    for node in sorted(nodes, key=lambda n: n.name):
        hasher.update(
            f"|node:{node.name}:{node.kind}:{node.queue_depth}".encode())
    def _edge_key(e: IREdge):
        return (e.src_name, e.src_port or "", e.dst_name,
                e.dst_port or "", e.relays)
    for edge in sorted(edges, key=_edge_key):
        hasher.update(
            f"|edge:{edge.src_name}[{edge.src_port}]->"
            f"{edge.dst_name}[{edge.dst_port}]:"
            f"{','.join(edge.relays)}".encode())
    for entry in sorted(domain_entries):
        hasher.update(entry.encode())
    for entry in sorted(bridge_entries):
        hasher.update(entry.encode())
    return hasher.hexdigest()


# -- lowering ------------------------------------------------------------


def _structure_signature(graph: SystemGraph) -> Tuple:
    """Cheap O(V+E) identity guard for the per-graph memo.

    Behavioural callables participate (by identity): the lowered
    :class:`IRNode` tables capture ``pearl_factory``/``stream_factory``/
    ``stop_script``, so swapping one in place must invalidate the memo
    exactly like an ``edge.relays`` edit — otherwise a later
    ``elaborate()`` builds endpoints from stale callables.  The
    *structural* fingerprint deliberately keeps excluding them (see
    :func:`structural_fingerprint`).
    """
    return (
        graph.name,
        tuple(sorted(getattr(graph, "domains", {}).items())),
        tuple((n.name, n.kind, n.queue_depth, n.pearl_factory,
               n.stream_factory, n.stop_script,
               getattr(n, "domain", DEFAULT_DOMAIN))
              for n in graph.nodes.values()),
        tuple((e.src, e.dst, e.src_port, e.dst_port, tuple(e.relays),
               getattr(e, "bridge", None))
              for e in graph.edges),
    )


def lower(graph: SystemGraph) -> LoweredSystem:
    """Lower *graph* to its canonical table form (memoized per object).

    The memo is guarded by a structural signature, so in-place edits
    (``edge.relays = ...``) are picked up on the next call; it is kept
    out of graph pickles by ``SystemGraph.__getstate__``.  Passing an
    existing :class:`LoweredSystem` returns it unchanged.
    """
    if isinstance(graph, LoweredSystem):
        return graph
    signature = _structure_signature(graph)
    cached = getattr(graph, _MEMO_ATTR, None)
    if cached is not None and cached[0] == signature:
        STATS.memo_hits += 1
        return cached[1]
    lowered = _lower_uncached(graph)
    STATS.lowerings += 1
    try:
        setattr(graph, _MEMO_ATTR, (signature, lowered))
    except Exception:  # pragma: no cover - exotic graph subclasses
        pass
    return lowered


def _lower_uncached(graph: SystemGraph) -> LoweredSystem:
    nodes = tuple(
        IRNode(i, n.name, n.kind, n.queue_depth, n.pearl_factory,
               n.stream_factory, n.stop_script)
        for i, n in enumerate(graph.nodes.values())
    )
    node_index = {n.name: n.index for n in nodes}

    # Clock-domain tables.  Domains enter in node first-use order;
    # graphs (or pickles) predating the GALS layer default everything
    # to the base-rate domain, making all of this degenerate.
    graph_domains = getattr(graph, "domains", None) or {}
    node_domain_names = [
        getattr(n, "domain", DEFAULT_DOMAIN)
        for n in graph.nodes.values()
    ]
    domain_order: List[str] = []
    for dom in node_domain_names:
        if dom not in domain_order:
            domain_order.append(dom)
    if not domain_order:
        domain_order = [DEFAULT_DOMAIN]
    rates = {
        dom: Fraction(graph_domains.get(dom, Fraction(1)))
        for dom in domain_order
    }
    hyperperiod = math.lcm(
        *(rates[dom].denominator for dom in domain_order))
    domains = tuple(
        IRDomain(i, dom, rates[dom],
                 firing_schedule(rates[dom], hyperperiod))
        for i, dom in enumerate(domain_order))
    domain_ord = {dom: i for i, dom in enumerate(domain_order)}
    node_domain = tuple(domain_ord[dom] for dom in node_domain_names)
    shell_ids = tuple(n.index for n in nodes if n.kind == "shell")
    source_ids = tuple(n.index for n in nodes if n.kind == "source")
    sink_ids = tuple(n.index for n in nodes if n.kind == "sink")
    shell_ord = {nodes[i].name: j for j, i in enumerate(shell_ids)}
    source_ord = {nodes[i].name: j for j, i in enumerate(source_ids)}
    sink_ord = {nodes[i].name: j for j, i in enumerate(sink_ids)}

    edges: List[IREdge] = []
    relays: List[IRRelay] = []
    hops: List[IRHop] = []
    hop_name_seen: Dict[str, int] = {}
    shell_in: List[List[int]] = [[] for _ in shell_ids]
    shell_out: List[List[int]] = [[] for _ in shell_ids]
    source_out: List[List[int]] = [[] for _ in source_ids]
    sink_in: List[Optional[int]] = [None] * len(sink_ids)
    relay_in: List[int] = []
    relay_out: List[int] = []
    shell_regs: List[Tuple[int, int]] = []
    bridges: List[IRBridge] = []
    bridge_in: List[int] = []
    bridge_out: List[int] = []

    # The expansion below mirrors the historical scalar builder walk
    # exactly (edge list order, chain order, naming) — bit-exactness of
    # every backend that consumes these tables depends on it.
    for e_idx, edge in enumerate(graph.edges):
        src_node = graph.nodes[edge.src]
        dst_node = graph.nodes[edge.dst]
        for spec in edge.relays:
            # Single validation point for the whole system: edge
            # construction validates too, but in-place chain edits
            # (transform passes, tests) land here first.
            validate_relay_spec(
                spec, where=f"edge {edge.src}->{edge.dst}")

        # Bridge validation mirrors the relay-spec discipline: edge
        # construction checks at build time, this catches in-place
        # domain/bridge edits.
        where = f"edge {edge.src}->{edge.dst}"
        src_dom = domain_ord[node_domain_names[node_index[edge.src]]]
        dst_dom = domain_ord[node_domain_names[node_index[edge.dst]]]
        bridge_spec = getattr(edge, "bridge", None)
        bridge_id: Optional[int] = None
        if bridge_spec is not None:
            bridge_spec = validate_bridge_spec(bridge_spec, where=where)
            if src_dom == dst_dom:
                raise StructuralError(
                    f"{where} stays inside clock domain "
                    f"{domains[src_dom].name!r}; bridges belong only "
                    f"on domain-crossing edges")
            bridge_id = len(bridges)
            bridges.append(IRBridge(
                bridge_id, e_idx, bridge_spec.depth, src_dom, dst_dom,
                f"{edge.src}->{edge.dst}.bridge"))
            bridge_in.append(-1)
            bridge_out.append(-1)
        elif src_dom != dst_dom:
            raise StructuralError(
                f"{where} crosses clock domains "
                f"{domains[src_dom].name!r} -> {domains[dst_dom].name!r} "
                f"without a bisynchronous FIFO bridge (set edge.bridge "
                f"or rebuild via add_edge(..., bridge=...))")
        edges.append(IREdge(
            e_idx, node_index[edge.src], node_index[edge.dst],
            edge.src, edge.dst, edge.src_port, edge.dst_port,
            tuple(edge.relays), bridge=bridge_id))

        if src_node.kind == "shell":
            reg_id = len(shell_regs)
            shell_regs.append((shell_ord[edge.src], e_idx))
            producer_ref = (SHELL, shell_ord[edge.src])
            producer_reg = reg_id
        else:
            producer_ref = (SRC, source_ord[edge.src])
            producer_reg = -1

        chain: List[int] = []
        for pos, spec in enumerate(edge.relays):
            rs_id = len(relays)
            relays.append(IRRelay(
                rs_id, e_idx, pos, spec, RS_KIND_TAG[spec],
                f"{edge.src}->{edge.dst}.rs{pos}"))
            relay_in.append(-1)
            relay_out.append(-1)
            chain.append(rs_id)

        if dst_node.kind == "shell":
            dst_ref = (SHELL, shell_ord[edge.dst])
        else:
            dst_ref = (SINK, sink_ord[edge.dst])

        bridge_ref = ([(RS_BRIDGE, bridge_id)]
                      if bridge_id is not None else [])
        producers = ([producer_ref] + [(relays[r].tag, r) for r in chain]
                     + bridge_ref)
        consumers = ([(relays[r].tag, r) for r in chain] + bridge_ref
                     + [dst_ref])
        for seg, ((p_kind, p_id), (c_kind, c_id)) in enumerate(
                zip(producers, consumers)):
            hop_id = len(hops)
            name = f"{edge.src}->{edge.dst}[{seg}]"
            dup = hop_name_seen.get(name, 0)
            hop_name_seen[name] = dup + 1
            if dup:
                name = f"{name}~{dup}"
            hops.append(IRHop(
                hop_id, e_idx, seg, name, p_kind, p_id,
                producer_reg if seg == 0 else -1, c_kind, c_id))
            if p_kind == SRC:
                source_out[p_id].append(hop_id)
            elif p_kind == SHELL:
                shell_out[p_id].append(hop_id)
            elif p_kind == RS_BRIDGE:
                bridge_out[p_id] = hop_id
            else:
                relay_out[p_id] = hop_id
            if c_kind == SHELL:
                shell_in[c_id].append(hop_id)
            elif c_kind == SINK:
                sink_in[c_id] = hop_id
            elif c_kind == RS_BRIDGE:
                bridge_in[c_id] = hop_id
            else:
                relay_in[c_id] = hop_id

    may_be_ambiguous = any(r.tag == RS_HALF for r in relays) or any(
        h.producer_kind == SHELL and h.consumer_kind == SHELL
        for h in hops)
    specs_used = {r.spec for r in relays}
    has_queues = any(n.queue_depth is not None for n in nodes)
    requirements = frozenset(
        {f"relay-{spec}" for spec in specs_used}
        | ({"queued-shell"} if has_queues else set()))

    edges_t = tuple(edges)
    nodes_t = nodes
    single_clock = (not bridges
                    and all(d.rate == 1 for d in domains))
    domain_entries = tuple(
        f"|domain:{nodes[i].name}:{domains[node_domain[i]].name}:"
        f"{domains[node_domain[i]].rate}"
        for i in range(len(nodes))
        if domains[node_domain[i]].name != DEFAULT_DOMAIN)
    bridge_entries = tuple(
        f"|bridge:{e.src_name}[{e.src_port}]->"
        f"{e.dst_name}[{e.dst_port}]:{bridges[e.bridge].depth}:"
        f"{domains[bridges[e.bridge].src_domain].rate}->"
        f"{domains[bridges[e.bridge].dst_domain].rate}"
        for e in edges_t if e.bridge is not None)
    return LoweredSystem(
        name=graph.name,
        graph=graph,
        nodes=nodes_t,
        edges=edges_t,
        relays=tuple(relays),
        hops=tuple(hops),
        shell_ids=shell_ids,
        source_ids=source_ids,
        sink_ids=sink_ids,
        shell_names=tuple(nodes[i].name for i in shell_ids),
        source_names=tuple(nodes[i].name for i in source_ids),
        sink_names=tuple(nodes[i].name for i in sink_ids),
        relay_names=tuple(r.name for r in relays),
        hop_names=tuple(h.name for h in hops),
        shell_in_hops=tuple(tuple(x) for x in shell_in),
        shell_out_hops=tuple(tuple(x) for x in shell_out),
        source_out_hops=tuple(tuple(x) for x in source_out),
        sink_in_hop=tuple(sink_in),
        relay_in_hop=tuple(relay_in),
        relay_out_hop=tuple(relay_out),
        shell_regs=tuple(shell_regs),
        may_be_ambiguous=may_be_ambiguous,
        all_full_relays=all(r.tag == RS_FULL for r in relays),
        has_queued_shells=has_queues,
        requirements=requirements,
        fingerprint=_fingerprint(nodes_t, edges_t,
                                 domain_entries, bridge_entries),
        domains=domains,
        node_domain=node_domain,
        hyperperiod=hyperperiod,
        bridges=tuple(bridges),
        bridge_names=tuple(b.name for b in bridges),
        bridge_in_hop=tuple(bridge_in),
        bridge_out_hop=tuple(bridge_out),
        single_clock=single_clock,
        has_bridges=bool(bridges),
    )
