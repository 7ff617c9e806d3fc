"""Property-based fuzzing of random rational clock rates.

Random GALS topologies (chain and ring families, random rational
rates, random bridge depths) checked against the scalar reference:

* the bit-plane batch engine reproduces scalar firings, sink accepts
  and bridge occupancy cycle by cycle, with and without random CDC
  occupancy pokes;
* feed-forward chains with depth >= 3 bridges sustain exactly
  ``min_d rate_d`` (depth 2: at most that);
* the static GALS bound always dominates the simulated rate.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import simulated_throughput, static_system_throughput
from repro.graph import gals_chain, gals_ring
from repro.lid.variant import ProtocolVariant
from repro.skeleton import BitplaneSkeletonSim, SkeletonSim

pytestmark = pytest.mark.slow

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Rational rates with small denominators (hyperperiod stays modest).
rates = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
).map(lambda f: min(f, Fraction(1)))

rate_lists = st.lists(rates, min_size=2, max_size=3)
variants = st.sampled_from([ProtocolVariant.CASU,
                            ProtocolVariant.CARLONI])

#: CDC pokes as (bridge selector, cycle, delta, duration); the selector
#: is reduced modulo the graph's bridge count.
poke_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 89),
              st.sampled_from([-2, -1, 1, 2]), st.integers(1, 40)),
    max_size=4)


def _assert_bitsim_matches_scalar(graph, variant, pokes, cycles=90):
    """Plane 0 runs clean, plane 1 carries *pokes*; both equal scalar."""
    scalars = [SkeletonSim(graph, variant=variant, detect_ambiguity=False)
               for _ in range(2)]
    batch = BitplaneSkeletonSim(graph, batch=2, variant=variant,
                                detect_ambiguity=False)
    bridges = len(scalars[0].bridge_names)
    for selector, at, delta, duration in pokes:
        scalars[1].poke_bridge(selector % bridges, at, delta, duration)
        batch.poke_bridge(1, selector % bridges, at, delta, duration)
    for cycle in range(cycles):
        fires, accepts = batch.step()
        for plane, scalar in enumerate(scalars):
            s_fires, s_accepts = scalar.step()
            ctx = (cycle, plane)
            assert tuple(bool((w >> plane) & 1) for w in fires) \
                == s_fires, ctx
            assert tuple(bool((w >> plane) & 1) for w in accepts) \
                == s_accepts, ctx
            assert tuple(sum((w >> plane) & 1 for w in ge)
                         for ge in batch.bridge_ge) \
                == tuple(scalar.bridge_occ), ctx


@given(rate_list=rate_lists, depth=st.integers(1, 3), variant=variants,
       pokes=poke_lists)
@settings(**SETTINGS)
def test_vectorized_matches_scalar_on_random_chains(rate_list, depth,
                                                    variant, pokes):
    """The bit-plane batch engine on random chains (with CDC pokes)."""
    graph = gals_chain(rates=rate_list, depth=depth)
    _assert_bitsim_matches_scalar(graph, variant, pokes)


@given(rate_list=rate_lists, shells=st.integers(1, 2),
       depth=st.integers(1, 3), variant=variants, pokes=poke_lists)
@settings(**SETTINGS)
def test_vectorized_matches_scalar_on_random_rings(rate_list, shells,
                                                   depth, variant, pokes):
    """The bit-plane batch engine on random rings (with CDC pokes)."""
    graph = gals_ring(rates=rate_list, shells_per_domain=shells,
                      depth=depth)
    _assert_bitsim_matches_scalar(graph, variant, pokes)


@given(rate_list=rate_lists, depth=st.integers(3, 4))
@settings(**SETTINGS)
def test_chain_throughput_is_min_rate(rate_list, depth):
    """Feed-forward GALS with depth >= 3 bridges: formula is exact.

    Shallower bridges are excluded by construction: a single-slot
    bridge cannot read and write in the same cycle (pinned in
    ``test_depth_one_bridge_bound``), and two slots cannot absorb the
    schedules' one-token jitter — this fuzz test found rates
    ``[3/4, 4/5]`` at depth 2 running at 7/10 (pinned in
    ``tests/analysis/test_gals_throughput.py``).
    """
    graph = gals_chain(rates=rate_list, depth=depth)
    expected = min(rate_list)
    assert static_system_throughput(graph) == expected
    assert simulated_throughput(graph) == expected


@given(rate_list=rate_lists)
@settings(**SETTINGS)
def test_depth_two_chain_bound(rate_list):
    """Depth-2 bridges: ``min_d rate_d`` is a certified upper bound."""
    graph = gals_chain(rates=rate_list, depth=2)
    bound = static_system_throughput(graph)
    assert bound == min(rate_list)
    assert Fraction(0) < simulated_throughput(graph) <= bound


@given(rate_list=rate_lists)
@settings(**SETTINGS)
def test_depth_one_bridge_bound(rate_list):
    """Depth-1 bridges: the alternation cap 1/2 still dominates."""
    graph = gals_chain(rates=rate_list, depth=1)
    bound = static_system_throughput(graph)
    exact = simulated_throughput(graph)
    assert bound == min(min(rate_list), Fraction(1, 2))
    assert Fraction(0) < exact <= bound


@given(rate_list=rate_lists, shells=st.integers(1, 2))
@settings(**SETTINGS)
def test_ring_bound_dominates_simulation(rate_list, shells):
    """Cyclic GALS: the static bound is never violated."""
    graph = gals_ring(rates=rate_list, shells_per_domain=shells)
    bound = static_system_throughput(graph)
    exact = simulated_throughput(graph)
    assert Fraction(0) < exact <= bound
