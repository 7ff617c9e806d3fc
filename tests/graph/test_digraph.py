"""The stdlib graph walks against networkx, kept as a test-only oracle.

:mod:`repro.graph.digraph` replaced networkx at run time; networkx
stays in the ``test`` extra so every walk can be compared with it on
every topology family of :mod:`repro.graph.specs` and on seeded random
DAGs and loopy graphs.  The functions named ``_nx_*`` and
``_find_cycle_columns`` rebuild the networkx code the walks replaced.
The hypothesis sweeps at the bottom are ``slow``.
"""

import itertools
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import (
    analyze_reconvergence,
    longest_register_path,
    reconvergence_pairs,
)
from repro.errors import AnalysisError
from repro.graph import (
    TOPOLOGY_CHOICES,
    digraph,
    layered_placement,
    parse_topology,
    random_dag,
    random_loopy,
    relay_depths,
)
from repro.ir import lower

SPECS = TOPOLOGY_CHOICES + (
    "figure2:relays=3", "ring:shells=4", "reconvergent:long=2+1+3,short=1",
    "composed:imbalance=2,loop_relays=1", "butterfly:lanes=4",
    "gals-ring:rates=1+1/2+1/3", "dag:shells=8,fanin=3",
    "loopy:shells=6,chords=3",
)
SEEDS = range(6)


def _family_graphs():
    for spec in SPECS:
        yield spec, parse_topology(spec)
    for seed in SEEDS:
        yield f"dag-{seed}", random_dag(seed, shells=7, max_fanin=3)
        yield f"loopy-{seed}", random_loopy(seed, shells=6,
                                            extra_back_edges=2)


FAMILIES = dict(_family_graphs())


def _nx_graph(succ):
    g = nx.DiGraph()
    g.add_nodes_from(succ)
    g.add_edges_from((u, v) for u, targets in succ.items() for v in targets)
    return g


def _nx_disjoint_paths(succ, source, target, limit=None):
    try:
        return list(nx.node_disjoint_paths(_nx_graph(succ), source, target))
    except nx.NetworkXNoPath:
        return []


def _rotated(cycle):
    first = cycle.index(min(cycle))
    return tuple(cycle[first:] + cycle[:first])


def _candidates(low):
    """The (divergence, join) pairs :func:`reconvergence_pairs` tests."""
    for div, join in itertools.permutations(low.nodes, 2):
        if (div.kind != "sink" and join.kind == "shell"
                and len(low.in_edges(join.name)) >= 2):
            yield div.name, join.name


def _graph_succ(graph):
    return digraph.successors(graph.nodes,
                              ((e.src, e.dst) for e in graph.edges))


def _find_cycle_columns(graph):
    """``layered_placement``'s columns, cycles broken by ``find_cycle``."""
    g = _nx_graph(_graph_succ(graph))
    while not nx.is_directed_acyclic_graph(g):
        g.remove_edge(*nx.find_cycle(g)[-1][:2])
    column = {}
    for node in nx.topological_sort(g):
        preds = [column[p] for p in g.predecessors(node)]
        column[node] = max(preds) + 1 if preds else 0
    return column


def _nx_relay_depths(graph):
    """``relay_depths(graph, strict=False)`` over networkx."""
    component = {}
    for index, comp in enumerate(
            nx.strongly_connected_components(_nx_graph(_graph_succ(graph)))):
        component.update(dict.fromkeys(comp, index))
    g = nx.MultiDiGraph()
    g.add_nodes_from(graph.nodes)
    for edge in graph.edges:
        if component[edge.src] != component[edge.dst]:
            g.add_edge(edge.src, edge.dst, w=edge.relay_count)
    depth = {}
    for node in nx.topological_sort(g):
        depth[node] = max((depth[u] + data["w"]
                           for u, _v, data in g.in_edges(node, data=True)),
                          default=0)
    return depth


def _nx_longest_register_path(graph):
    g = nx.DiGraph()
    g.add_nodes_from(graph.nodes)
    for edge in graph.edges:
        weight = edge.relay_count + 1
        if not g.has_edge(edge.src, edge.dst) \
                or g[edge.src][edge.dst]["w"] < weight:
            g.add_edge(edge.src, edge.dst, w=weight)
    depth = {}
    for node in nx.topological_sort(g):
        depth[node] = max((depth[u] + data["w"]
                           for u, _v, data in g.in_edges(node, data=True)),
                          default=0)
    return max(depth.values(), default=0)


def _assert_walks_match(succ):
    """Components, order, cycles and back edges agree with networkx."""
    g = _nx_graph(succ)
    assert {frozenset(c) for c in
            digraph.strongly_connected_components(succ)} == \
        {frozenset(c) for c in nx.strongly_connected_components(g)}
    order = digraph.topological_order(succ)
    assert (order is not None) == nx.is_directed_acyclic_graph(g)
    if order is not None:
        assert order == list(nx.topological_sort(g))
    cycles = [_rotated(c) for c in digraph.simple_cycles(succ)]
    assert len(cycles) == len(set(cycles))
    assert set(cycles) == {_rotated(c) for c in nx.simple_cycles(g)}
    acyclic = g.copy()
    removed = set()
    while not nx.is_directed_acyclic_graph(acyclic):
        edge = nx.find_cycle(acyclic)[-1][:2]
        acyclic.remove_edge(*edge)
        removed.add(edge)
    assert set(digraph.back_edges(succ)) == removed


def _assert_disjoint_paths_match(succ, source, target):
    ours = digraph.node_disjoint_paths(succ, source, target)
    assert sorted(map(tuple, ours)) == sorted(
        map(tuple, _nx_disjoint_paths(succ, source, target)))
    inner = [node for path in ours for node in path[1:-1]]
    assert len(inner) == len(set(inner))
    assert len(digraph.node_disjoint_paths(succ, source, target,
                                           limit=2)) == min(len(ours), 2)


@pytest.mark.parametrize("name", sorted(FAMILIES))
class TestFamiliesAgainstNetworkx:
    def test_walks(self, name):
        _assert_walks_match(lower(FAMILIES[name]).block_digraph())

    def test_disjoint_paths_of_every_candidate(self, name):
        low = lower(FAMILIES[name])
        for div, join in _candidates(low):
            _assert_disjoint_paths_match(low.block_digraph(), div, join)

    def test_reconvergence_formula(self, name, monkeypatch):
        graph = FAMILIES[name]
        pairs = reconvergence_pairs(graph)
        ours = [analyze_reconvergence(graph, div, join)
                for div, join in pairs]
        monkeypatch.setattr(digraph, "node_disjoint_paths",
                            _nx_disjoint_paths)
        assert reconvergence_pairs(graph) == pairs
        assert ours == [analyze_reconvergence(graph, div, join)
                        for div, join in pairs]

    def test_layered_placement_columns(self, name):
        graph = FAMILIES[name]
        columns = {node: int(x) for node, (x, _y)
                   in layered_placement(graph).positions.items()}
        assert columns == _find_cycle_columns(graph)

    def test_relay_depths_and_longest_path(self, name):
        graph = FAMILIES[name]
        assert list(relay_depths(graph, strict=False).items()) == \
            list(_nx_relay_depths(graph).items())
        if graph.is_feedforward():
            assert longest_register_path(graph) == \
                _nx_longest_register_path(graph)
        else:
            with pytest.raises(AnalysisError):
                longest_register_path(graph)

    def test_shell_cycle_order(self, name):
        low = lower(FAMILIES[name])
        position = {node.name: node.index for node in low.nodes}
        cycles = low.shell_cycles()
        loops = [len(c) == 1 for c in cycles]
        assert loops == sorted(loops, reverse=True)  # self-loops first
        starts = [position[c[0]] for c in cycles if len(c) > 1]
        assert starts == sorted(starts)
        for cycle in cycles:
            assert position[cycle[0]] == min(position[n] for n in cycle)


class TestUnitCases:
    def test_self_loop_and_isolated_node(self):
        succ = digraph.successors(["a", "b"], [("a", "a")])
        assert succ == {"a": ["a"], "b": []}
        assert sorted(digraph.strongly_connected_components(succ)) == \
            [["a"], ["b"]]
        assert digraph.topological_order(succ) is None
        assert list(digraph.simple_cycles(succ)) == [["a"]]
        assert digraph.back_edges(succ) == [("a", "a")]
        assert digraph.node_disjoint_paths(succ, "a", "b") == []
        assert digraph.topological_order({"b": []}) == ["b"]

    def test_parallel_edges_count_once(self):
        succ = digraph.successors(["a", "b"], [("a", "b"), ("a", "b")])
        assert succ == {"a": ["b"], "b": []}
        assert digraph.node_disjoint_paths(succ, "a", "b") == [["a", "b"]]
        assert list(digraph.simple_cycles(succ)) == []

    def test_direct_edge_is_a_path(self):
        succ = digraph.successors(
            "sxt", [("s", "t"), ("s", "x"), ("x", "t")])
        assert digraph.node_disjoint_paths(succ, "s", "t") == \
            [["s", "t"], ["s", "x", "t"]]

    def test_shared_inner_node_gives_one_path(self):
        succ = digraph.successors(
            "sabmt", [("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
                      ("m", "t")])
        assert len(digraph.node_disjoint_paths(succ, "s", "t")) == 1
        _assert_disjoint_paths_match(succ, "s", "t")

    def test_three_branch_join(self):
        succ = digraph.successors(
            "sabct", [("s", "a"), ("s", "b"), ("s", "c"), ("a", "t"),
                      ("b", "t"), ("c", "t")])
        assert digraph.node_disjoint_paths(succ, "s", "t") == \
            [["s", "a", "t"], ["s", "b", "t"], ["s", "c", "t"]]
        assert len(digraph.node_disjoint_paths(succ, "s", "t",
                                               limit=2)) == 2

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            digraph.node_disjoint_paths({"a": []}, "a", "z")

    def test_reconvergence_on_figure1(self):
        graph = parse_topology("figure1")
        assert reconvergence_pairs(graph) == [("A", "C")]
        assert analyze_reconvergence(graph, "A", "C") == \
            (1, 5, Fraction(4, 5))


SETTINGS = dict(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

random_edges = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=3 * n)))


@pytest.mark.slow
@given(graph=random_edges)
@settings(**SETTINGS)
def test_random_digraphs_match_networkx(graph):
    """Self-loops, parallel edges and dense cycles included."""
    n, edges = graph
    succ = digraph.successors(range(n), edges)
    _assert_walks_match(succ)
    for source, target in itertools.permutations(range(n), 2):
        _assert_disjoint_paths_match(succ, source, target)


@pytest.mark.slow
@given(seed=st.integers(0, 10_000), loopy=st.booleans(),
       shells=st.integers(3, 9))
@settings(**SETTINGS)
def test_random_families_match_networkx(seed, loopy, shells):
    graph = (random_loopy(seed, shells=shells, extra_back_edges=seed % 4)
             if loopy else random_dag(seed, shells=shells,
                                      max_fanin=2 + seed % 2))
    low = lower(graph)
    _assert_walks_match(low.block_digraph())
    for div, join in _candidates(low):
        _assert_disjoint_paths_match(low.block_digraph(), div, join)
    columns = {node: int(x) for node, (x, _y)
               in layered_placement(graph).positions.items()}
    assert columns == _find_cycle_columns(graph)
    assert relay_depths(graph, strict=False) == _nx_relay_depths(graph)
