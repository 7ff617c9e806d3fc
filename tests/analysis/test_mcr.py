"""Tests for the minimum-cycle-ratio analyzer."""

from fractions import Fraction

import pytest

from repro.analysis import mcr, min_cycle_ratio_throughput
from repro.analysis.mcr import _best_fraction_between
from repro.graph import (
    composed,
    figure1,
    figure2,
    loop_with_tail,
    pipeline,
    random_dag,
    random_loopy,
    reconvergent,
    ring,
    tree,
)
from repro.skeleton import system_throughput


def _fraction_has_cycle_below(arcs, n_nodes, ratio):
    """Reference negative-cycle check: Bellman–Ford over ``Fraction``
    weights ``tokens - ratio*delay``, as the analyzer ran it before it
    scaled the weights to integers."""
    dist = [Fraction(0)] * n_nodes
    pred = [None] * n_nodes
    last_relaxed = -1
    for _round in range(n_nodes):
        changed = False
        for arc in arcs:
            weight = Fraction(arc.tokens) - ratio * arc.delay
            if dist[arc.src] + weight < dist[arc.dst]:
                dist[arc.dst] = dist[arc.src] + weight
                pred[arc.dst] = arc.src
                changed = True
                last_relaxed = arc.dst
        if not changed:
            return None
    node = last_relaxed
    for _ in range(n_nodes):
        node = pred[node]
    cycle = [node]
    cursor = pred[node]
    while cursor != node:
        cycle.append(cursor)
        cursor = pred[cursor]
    cycle.reverse()
    return cycle


def _check(graph, monkeypatch):
    """The analyzer agrees with simulation, and its critical cycle with
    the ``Fraction`` reference search."""
    result = min_cycle_ratio_throughput(graph)
    assert result.throughput == system_throughput(graph)
    with monkeypatch.context() as patch:
        patch.setattr(mcr, "_has_cycle_below", _fraction_has_cycle_below)
        reference = min_cycle_ratio_throughput(graph)
    assert (result.throughput, result.critical_cycle) == \
        (reference.throughput, reference.critical_cycle)


class TestKnownTopologies:
    @pytest.mark.parametrize("graph,expected", [
        (pipeline(3), Fraction(1)),
        (tree(2), Fraction(1)),
        (figure1(), Fraction(4, 5)),
        (figure2(), Fraction(1, 2)),
        (ring(2, relays_per_arc=2), Fraction(1, 3)),
        (reconvergent(long_relays=(2, 1), short_relays=1), Fraction(2, 3)),
        (loop_with_tail(), Fraction(1, 2)),
        (composed(), Fraction(1, 3)),
    ])
    def test_throughput(self, graph, expected):
        assert min_cycle_ratio_throughput(graph).throughput == expected

    def test_critical_cycle_names_loop(self):
        result = min_cycle_ratio_throughput(figure2())
        assert result.critical_cycle  # non-empty on a binding loop
        assert any("S0" in n or "S1" in n or "rs" in n
                   for n in result.critical_cycle)

    def test_unbound_system_has_empty_cycle(self):
        result = min_cycle_ratio_throughput(pipeline(4))
        assert result.critical_cycle == []


class TestAgainstSimulation:
    """MCR must agree with skeleton simulation on random topologies, and
    with the ``Fraction`` reference search on the critical cycle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dags(self, seed, monkeypatch):
        _check(random_dag(seed, shells=5), monkeypatch)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_loopy(self, seed, monkeypatch):
        _check(random_loopy(seed, shells=4), monkeypatch)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_dags_with_half_relays(self, seed, monkeypatch):
        _check(random_dag(seed, shells=5, half_probability=0.5),
               monkeypatch)


class TestSternBrocot:
    def test_finds_simple_fraction(self):
        assert _best_fraction_between(
            Fraction(3, 10), Fraction(2, 5), 10) == Fraction(1, 3)

    def test_exact_lower_bound_included(self):
        assert _best_fraction_between(
            Fraction(1, 2), Fraction(51, 100), 10) == Fraction(1, 2)

    def test_narrow_interval(self):
        target = Fraction(4, 5)
        lo = target - Fraction(1, 1000)
        hi = target + Fraction(1, 1000)
        assert _best_fraction_between(lo, hi, 20) == target
