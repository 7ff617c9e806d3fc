"""The bit-plane engine's periodic tail (``BitplaneSkeletonSim.run``).

``run(n)`` does not step the whole periods left in a call once every
input stays constant to the end of the call and the state repeats
(docs/bitsim.md, "Periodic tail").  The reference is the same compiled
plan stepped one cycle at a time: registers, bridge words, every
counter, source ticks, holds and phases, both histories and the next
step must match it exactly, on the batches ``skeleton_campaign``
builds and on inputs it does not (pokes that last to the end, start
or end mid-call, sources held by back pressure ahead of a void
glitch, one plane, a bridge filling behind a stalled consumer).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import parse_topology
from repro.inject import skeleton_campaign
from repro.ir import lower
from repro.lid.variant import ProtocolVariant
from repro.obs import Telemetry
from repro.skeleton import BitplaneSkeletonSim, backend
from repro.skeleton.bitsim import (
    _sliced_add_scaled,
    _sliced_sub,
    _VerticalCounter,
)

CASU = ProtocolVariant.CASU
CARLONI = ProtocolVariant.CARLONI

#: (topology, cycles, exhaustive window, fault classes): campaign
#: shapes over every family the e2e generator and the GALS goldens use.
FAMILIES = [
    ("figure2:relays=2", 240, (30, 44), ("stop", "void")),
    ("ring:shells=3", 240, (10, 22), ("stop", "void")),
    ("pipeline:stages=3", 240, (60, 72), ("stop", "void")),
    ("reconvergent", 200, (5, 17), ("stop", "void")),
    ("gals-ring:rates=1+1/2", 600, (40, 52), ("stop", "void", "cdc")),
    ("gals-chain:rates=1+1/2+1/3", 600, (20, 32),
     ("stop", "void", "cdc")),
]


class _Counting:
    """A plan that counts the cycles it steps."""

    def __init__(self, plan):
        self.plan = plan
        self.cycles = 0

    def run_cycles(self, sim, n):
        self.cycles += max(n, 0)
        return self.plan.run_cycles(sim, n)

    def cycle(self, sim):
        self.cycles += 1
        return self.plan.cycle(sim)


def _counted(sim):
    sim._plan = _Counting(sim._plan)
    return sim._plan


def _campaign_batch(spec, variant, cycles, window, classes):
    """The scripts and pokes of the batch ``skeleton_campaign`` runs."""
    graph = parse_topology(spec, seed=3)
    captured = []
    select = backend.select

    def capture(*args, **kwargs):
        handle = select(*args, **kwargs)
        pokes = []
        poke = handle.poke_bridge

        def record(*poke_args, **poke_kwargs):
            pokes.append((poke_args, poke_kwargs))
            return poke(*poke_args, **poke_kwargs)

        handle.poke_bridge = record
        captured.append((kwargs, pokes))
        return handle

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "select", capture)
        skeleton_campaign(graph, variant=variant, classes=classes,
                          cycles=cycles, window=window, exhaustive=True,
                          seed=3, backend="bitsim")
    ((kwargs, pokes),) = captured
    sources = [dict(m) for m in kwargs["source_patterns"]]
    sinks = [dict(m) for m in kwargs["sink_patterns"]]
    return graph, sources, sinks, pokes


def _extend(graph, sources, sinks, pokes, cycles):
    """Add the inputs a campaign batch lacks: a source whose void
    glitch waits behind tokens held by back pressure (its phase lags
    the cycle count), and bridge pokes that last to the end of the run,
    start inside its tail call or end inside a call."""
    rng = random.Random(cycles)
    sink = next(iter(sinks[0]), None)
    for name in sources[0]:
        at = rng.randrange(cycles // 8, cycles // 5)
        source = list(sources[0][name])
        source[at:at + 3] = (False,) * 3
        back = dict(sinks[0])
        if sink is not None:
            stop = list(back[sink])
            stop[at - 20:at + 10] = (True,) * 30
            back[sink] = tuple(stop)
        sources.append({**sources[0], name: tuple(source)})
        sinks.append(back)
    pokes = list(pokes)
    tail_call = cycles - max(8, cycles // 8)
    for bridge in lower(graph).bridge_names:
        for at, delta, duration in ((cycles // 3, 1, cycles),
                                    (cycles // 4, -1, 40),
                                    (tail_call + 4, -1, cycles),
                                    (tail_call + 2, -1, 30),
                                    (tail_call + 2, 1, 3)):
            sources.append(dict(sources[0]))
            sinks.append(dict(sinks[0]))
            pokes.append(((len(sources) - 1, bridge, at, delta),
                          {"duration": duration}))
    return sources, sinks, pokes


def _build(graph, sources, sinks, pokes, variant, metrics):
    sim = BitplaneSkeletonSim(
        graph, sinks, source_patterns=sources, variant=variant,
        detect_ambiguity=False,
        telemetry=Telemetry.metrics_only() if metrics else None)
    for args, kwargs in pokes:
        sim.poke_bridge(*args, **kwargs)
    return sim


def _counters(sim):
    """Every counter, read from the simulator's own attributes."""
    counters = [*sim.shell_fired, *sim.sink_accepted, sim.stop_assertions,
                sim.stops_on_voids, sim.internal_stops_on_voids,
                *sim.hop_stall_cycles]
    for levels in (*sim.rs_occupancy_counts, *sim.bridge_occupancy_counts):
        counters += levels
    return counters


def _observe(sim):
    """Everything but the histories (see _Reference.same)."""
    return (sim.cycle, list(sim.shell_reg), list(sim.rs_main),
            list(sim.rs_aux), list(sim.rs_stop_reg),
            [list(words) for words in sim.bridge_ge],
            [c.values(sim.batch) for c in _counters(sim)],
            list(sim._src_ticks), [list(h) for h in sim._src_holds],
            sim.src_phase)


class _Reference:
    """The plan stepped one cycle at a time: ``snapshots[c]`` is the
    state after *c* cycles, ``steps[c]`` the words cycle *c* returned,
    and the histories those of the whole run."""

    def __init__(self, make, cycles):
        sim = make()
        self.snapshots = [_observe(sim)]
        self.steps = []
        for _ in range(cycles):
            self.steps.append(sim.step())
            self.snapshots.append(_observe(sim))
        self.fires = sim._fire_history
        self.accepts = sim._accept_history

    def same(self, sim):
        assert _observe(sim) == self.snapshots[sim.cycle]
        assert sim._fire_history == self.fires[:sim.cycle]
        assert sim._accept_history == self.accepts[:sim.cycle]

    def check(self, sim):
        """*sim* equals the reference, and still does after one more
        step()."""
        self.same(sim)
        assert sim.step() == self.steps[sim.cycle - 1]
        self.same(sim)


@pytest.mark.parametrize("metrics", [False, True], ids=["plain", "metrics"])
@pytest.mark.parametrize("variant", [CASU, CARLONI], ids=str)
@pytest.mark.parametrize("spec,cycles,window,classes", FAMILIES,
                         ids=[family[0] for family in FAMILIES])
def test_campaign_batches_match_stepping(spec, cycles, window, classes,
                                         variant, metrics):
    """One call, and the campaign's head/tail calls, on a campaign
    batch extended with held sources and long or mid-call pokes."""
    graph, sources, sinks, pokes = _campaign_batch(
        spec, variant, cycles, window, classes)
    sources, sinks, pokes = _extend(graph, sources, sinks, pokes, cycles)

    def make():
        return _build(graph, sources, sinks, pokes, variant, metrics)

    reference = _Reference(make, cycles + 1)
    if sources[0]:
        assert any(map(any, reference.snapshots[-1][8])), "none held"
    tail = max(8, cycles // 8)
    for calls in ([cycles], [cycles - tail, tail]):
        sim = make()
        counting = _counted(sim)
        for n in calls:
            sim.run(n)
            reference.same(sim)
        assert counting.cycles < cycles  # the tail was skipped
        reference.check(sim)


@pytest.mark.parametrize("spec,variant,classes", [
    ("pipeline:stages=3", CASU, ("stop", "void")),
    ("ring:shells=2", CARLONI, ("stop", "void")),
    ("gals-ring:rates=1+1/2", CASU, ("stop", "void", "cdc")),
    ("gals-chain:rates=1+1/2+1/3", CASU, ("stop", "void", "cdc")),
])
def test_every_count_of_whole_periods_left(spec, variant, classes):
    """A second call of every length from 1 up: after detection it
    leaves 0, 1, 2 and many whole periods, so it steps everything,
    skips one period, then skips more."""
    cycles, head = 160, 100
    graph, sources, sinks, pokes = _campaign_batch(
        spec, variant, cycles, (10, 18), classes)

    def make():
        return _build(graph, sources, sinks, pokes, variant, False)

    reference = _Reference(make, cycles + 1)
    skipped = []
    for n in range(1, cycles - head + 1):
        sim = make()
        sim.run(head)
        counting = _counted(sim)
        sim.run(n)
        skipped.append(n - counting.cycles)
        reference.check(sim)
    # Short calls step every cycle; longer ones skip one whole period,
    # then several.
    assert skipped[0] == 0
    amounts = sorted(set(skipped) - {0})
    assert len(amounts) >= 3 and amounts[-1] >= 3 * amounts[0]


def test_bridge_words_are_part_of_the_key():
    """A slow producer keeps filling a deep bridge behind a stalled
    consumer while every register holds still: the key repeats only
    once the bridge is full."""
    graph = parse_topology("gals-chain:rates=1/2+1,depth=8")
    stop = (False,) * 50 + (True,) * 150

    def make():
        return BitplaneSkeletonSim(graph, [{"out": stop}, {}],
                                   detect_ambiguity=False)

    reference = _Reference(make, 201)
    sim = make()
    counting = _counted(sim)
    sim.run(200)
    assert counting.cycles < 100
    reference.check(sim)


def test_one_plane_matches_stepping():
    """A batch of one keeps its counters as plain ints inside a call."""
    graph = parse_topology("figure2:relays=1")
    stop = (False,) * 30 + (True,) * 7 + (False,) * 163

    def make():
        return BitplaneSkeletonSim(graph, [{"out": stop}], variant=CASU,
                                   detect_ambiguity=False)

    reference = _Reference(make, 201)
    sim = make()
    counting = _counted(sim)
    sim.run(200)
    assert counting.cycles < 100
    reference.check(sim)


@pytest.mark.parametrize("case", ["events", "ambiguity", "packed",
                                  "periodic-sink", "periodic-source"])
def test_runs_that_keep_stepping(case):
    """An event stream, the ambiguity probe, a sink stop word packed
    per cycle and scripts that repeat within the call: every cycle is
    stepped, even where the last lap of a script is quiet."""
    spec, kwargs = "pipeline:stages=3", {"detect_ambiguity": False}
    sources = None
    sinks = [{}, {"out": (False,) * 10 + (True,) * 3 + (False,) * 187}]
    if case == "events":
        kwargs["telemetry"] = Telemetry.full()
    elif case == "ambiguity":
        spec, kwargs = "ring:shells=2,relays=0", {"detect_ambiguity": True}
        sinks = [{}, {}]
    elif case == "packed":  # lcm(65, 67) = 4355 > 4096
        sinks = [{"out": (False,) * 64 + (True,)},
                 {"out": (False,) * 66 + (True,)}]
    elif case == "periodic-sink":
        sinks = [{"out": (True,) + (False,) * 49}, {}]
    else:
        sources = [{"src": (False,) + (True,) * 49}, {}]

    def make():
        return BitplaneSkeletonSim(parse_topology(spec), sinks,
                                   source_patterns=sources, **kwargs)

    reference = _Reference(make, 201)
    sim = make()
    counting = _counted(sim)
    sim.run(200)
    assert counting.cycles == 200
    reference.check(sim)


def test_exhaustive_windows_step_a_fifth_of_their_cycles():
    """Campaigns of the e2e generator's exhaustive-window shape (600
    cycles, a 24-36 cycle window in the first quarter) step at most a
    quarter of the cycles they request."""
    cases = [("figure2:relays=1", 0, 24), ("figure2:relays=3", 150, 36),
             ("ring:shells=2", 37, 30), ("ring:shells=3", 100, 24),
             ("pipeline:stages=3", 12, 28), ("pipeline:stages=4", 140, 36)]
    stepped = requested = 0
    select = backend.select

    def counted_select(*args, **kwargs):
        handle = select(*args, **kwargs)
        plans.append(_counted(handle.sim))
        return handle

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "select", counted_select)
        for spec, lo, width in cases:
            plans = []
            skeleton_campaign(parse_topology(spec), classes=("stop", "void"),
                              cycles=600, window=(lo, lo + width),
                              exhaustive=True, seed=1, backend="auto")
            (plan,) = plans
            stepped += plan.cycles
            requested += 600
    assert stepped <= requested // 4, (stepped, requested)


def _counter_of(values):
    """A vertical counter holding *values* in the form the compiled
    step leaves (at least two slices, no zero slice above those)."""
    counter = _VerticalCounter()
    width = max(2, max(values, default=0).bit_length())
    counter.slices = [
        sum(((value >> i) & 1) << plane for plane, value in enumerate(values))
        for i in range(width)]
    return counter


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 300)),
                min_size=1, max_size=20),
       st.integers(0, 1000))
def test_sliced_arithmetic_matches_per_plane_ints(counts, times):
    """The bit-sliced subtract and shift-add against per-plane ints."""
    before = [low for low, _grow in counts]
    after = [low + grow for low, grow in counts]
    delta = _sliced_sub(_counter_of(after).slices,
                        _counter_of(before).slices)
    difference = _VerticalCounter()
    difference.slices = delta
    assert difference.values(len(counts)) == [g for _low, g in counts]
    total = _counter_of(after)
    _sliced_add_scaled(total.slices, delta, times)
    expected = [a + times * g for a, (_low, g) in zip(after, counts)]
    assert total.values(len(counts)) == expected
    assert total.slices == _counter_of(expected).slices
