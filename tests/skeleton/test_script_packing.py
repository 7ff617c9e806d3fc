"""Sink script tables: difference packing against per-position packing.

:class:`BitplaneSkeletonSim` expands each sink's per-plane stop
scripts into one plane word per cycle of their lcm span.  It packs
the most-shared script once and every other distinct script by the
runs of cycles where it differs from that one
(:func:`repro.skeleton.bitsim._sink_schedule`).  The reference below
is the packing it replaced, one Python step per position of every
distinct script; the two must build the same words on every script
set, and a campaign-shaped batch built from them must match the
scalar engine plane by plane.
"""

import math
import random

import pytest

from repro.graph import figure1, pipeline
from repro.inject import FaultSpec
from repro.inject.campaign import _pattern_for
from repro.skeleton import BitplaneSkeletonSim

from .test_backend_conformance import _planes_match_scalar


def _reference_schedule(planes):
    """Per-position packing: every asserted position of every
    distinct script ORs its planes into the words."""
    masks = {}
    for p, pattern in enumerate(planes):
        masks[pattern] = masks.get(pattern, 0) | (1 << p)
    span = math.lcm(*(len(p) for p in planes))
    if span > 4096:
        return None
    words = [0] * span
    for pattern, plane_mask in masks.items():
        for i, bit in enumerate(pattern):
            if bit:
                for c in range(i, span, len(pattern)):
                    words[c] |= plane_mask
    return words


def _schedules(graph, sink_maps):
    sim = BitplaneSkeletonSim(graph, sink_maps)
    for k, name in enumerate(sim.sink_names):
        planes = [tuple(m.get(name, (False,))) for m in sink_maps]
        assert sim._sink_sched[k] == _reference_schedule(planes), name
        groups = {}
        for p, pattern in enumerate(planes):
            groups[pattern] = groups.get(pattern, 0) | (1 << p)
        assert sim._sink_groups[k] == list(groups.items()), name
    return sim


#: Entries of every truthiness the packing must read like ``bool()``:
#: small ints beyond 1, ints no byte holds, strings, ``None`` and
#: floats.
ENTRIES = (0, 1, 2, 256, -1, 2 ** 70, "x", "", None, True, False, 0.0,
           1.5)
#: Spans and the script lengths that divide them (lcm <= 4,096).
SPANS = {1: (1,), 6: (1, 2, 3, 6), 60: (4, 5, 12, 20, 60),
         600: (8, 24, 75, 600), 4096: (1, 64, 512, 4096),
         4095: (5, 7, 9, 13, 4095)}


def _random_script(rng, length, entries):
    return tuple(rng.choice(entries) for _ in range(length))


def _flip_runs(rng, script, runs, entries):
    """*script* with *runs* windows rewritten, the first at cycle 0 and
    the last ending at the script's last cycle."""
    out = list(script)
    n = len(out)
    for r in range(runs):
        width = rng.randint(1, max(1, n // 4))
        start = 0 if r == 0 else n - width if r == 1 \
            else rng.randrange(n)
        for c in range(start, min(n, start + width)):
            out[c] = rng.choice(entries)
    return tuple(out)


def _random_script_set(rng, width):
    span = rng.choice(list(SPANS))
    lengths = SPANS[span]
    entries = rng.choice((ENTRIES, (True, False), (0, 1, 2, "x", None)))
    shared = _random_script(rng, rng.choice(lengths), entries)
    distinct = [_flip_runs(rng, shared, rng.randint(1, 4), entries)
                for _ in range(rng.randint(0, 6))]
    distinct += [_random_script(rng, rng.choice(lengths), entries)
                 for _ in range(rng.randint(0, 3))]
    scripts = []
    for _ in range(width):
        if distinct and rng.random() < 0.4:
            scripts.append(rng.choice(distinct))
        else:
            scripts.append(shared)
    # The most-shared script is often not plane 0's.
    if distinct and rng.random() < 0.5:
        scripts[0] = distinct[0]
    return scripts


class TestAgainstPerPositionPacking:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_script_sets(self, seed):
        rng = random.Random(seed)
        width = rng.choice((1, 2, 3, 17, 64, 130))
        scripts = _random_script_set(rng, width)
        _schedules(pipeline(2), [{"out": s} for s in scripts])

    def test_one_shared_script(self):
        script = (True, False, 2, "x", None, 0)
        _schedules(pipeline(2), [{"out": script}] * 9)

    def test_a_single_plane(self):
        for script in ((True,), (False,), (0, 1, 2), ("x",) * 4096):
            _schedules(pipeline(2), [{"out": script}])

    def test_runs_at_both_ends(self):
        base = (False,) * 10
        scripts = [base, (True,) + base[1:], base[:-1] + (True,),
                   (True,) * 10, (True, False) * 5]
        _schedules(pipeline(2), [{"out": s} for s in scripts])

    def test_most_shared_script_is_not_plane_zero(self):
        rare, common = (True, False, False), (False, True)
        sim = _schedules(pipeline(2), [{"out": rare}] + [{"out": common}]
                         * 5)
        assert sim._sink_sched[0][:6] == [1, 62, 0, 63, 0, 62]

    def test_default_scripts_and_several_sinks(self):
        graph = figure1()
        names = [n.name for n in graph.sinks()]
        maps = [{}, {names[0]: (True, False)},
                {name: (2, 0, "x") for name in names}, {}]
        _schedules(graph, maps)

    def test_span_over_the_cap_falls_back_to_groups(self):
        scripts = [tuple(i % 5 == 0 for i in range(61)),
                   tuple(i % 3 == 1 for i in range(71))]
        sim = _schedules(pipeline(2), [{"out": s} for s in scripts])
        assert sim._sink_sched[0] is None


def _campaign_planes(cycles, planes, seed):
    """A golden plane plus stuck and glitch windows on the sink and
    source scripts, built as a skeleton campaign builds its columns."""
    rng = random.Random(seed)
    sink_base = tuple(c % 7 in (2, 3) for c in range(cycles))
    source_base = (True,) * cycles
    sink_maps, source_maps = [{"out": sink_base}], [{"src": source_base}]
    kinds = ("stop-glitch", "stop-stuck-1", "stop-stuck-0",
             "delayed-stop", "void-glitch", "valid-stuck-0")
    while len(sink_maps) < planes:
        kind = rng.choice(kinds)
        cycle = rng.randrange(cycles)
        duration = 0 if "stuck" in kind or kind == "delayed-stop" \
            else rng.randint(1, 3)
        spec = FaultSpec(kind, "any", cycle, duration)
        on_sink = kind.startswith(("stop", "delayed"))
        pattern = _pattern_for(spec, sink_base if on_sink else source_base)
        if pattern is None:
            continue
        sink_maps.append({"out": pattern if on_sink else sink_base})
        source_maps.append({"src": source_base if on_sink else pattern})
    return sink_maps, source_maps


def test_campaign_shaped_batch_matches_scalar():
    cycles = 90
    graph = pipeline(3, relays_per_hop=2)
    sink_maps, source_maps = _campaign_planes(cycles, 64, seed=5)
    batch = _planes_match_scalar(graph, sink_maps, source_maps, cycles)
    assert batch.batch == 64
    assert batch._sink_sched[0] == _reference_schedule(
        [m["out"] for m in sink_maps])
