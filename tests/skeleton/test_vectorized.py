"""Tests for the batch skeleton engine (bit planes across instances).

The batch engine is :class:`~repro.skeleton.bitsim.BitplaneSkeletonSim`,
the engine ``select()`` picks for every batch wider than one: these
tests pin its construction checks, its sweeps and its agreement with
the scalar reference through the raw class and through ``select()``.
"""

import pytest

from repro.graph import figure1, figure2, pipeline, ring, tree
from repro.lid.variant import ProtocolVariant
from repro.skeleton import BitplaneSkeletonSim, SkeletonSim, select


def _sink_rates(handle, cycles):
    """Per instance, each sink's accepts per cycle after *cycles*."""
    handle.run_cycles(cycles)
    counts = handle.accept_counts()
    return {name: [count / cycles for count in counts[j]]
            for j, name in enumerate(handle.sink_names)}


class TestConstruction:
    def test_half_relays_accepted(self):
        """The generalized engine covers half relay stations."""
        graph = ring(2, relays_per_arc=[["half"], ["full"]])
        batch = BitplaneSkeletonSim(graph, [{}])
        batch.run(20)
        assert batch.cycle == 20

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BitplaneSkeletonSim(pipeline(2), [])

    def test_no_width_rejected(self):
        with pytest.raises(ValueError):
            BitplaneSkeletonSim(pipeline(2))

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            BitplaneSkeletonSim(pipeline(2), [{}, {}],
                                source_patterns=[{}])

    def test_unknown_script_target_rejected(self):
        with pytest.raises(ValueError, match="unknown script target"):
            BitplaneSkeletonSim(pipeline(2), [{"nope": (True,)}])

    def test_bad_fixpoint_rejected(self):
        with pytest.raises(ValueError, match="fixpoint"):
            BitplaneSkeletonSim(pipeline(2), [{}], fixpoint="middle")


class TestGeneralizedFeatures:
    def test_scripted_sources_throttle_throughput(self):
        handle = select(pipeline(2), batch=2,
                        source_patterns=[{}, {"src": (True, False)}])
        rates = _sink_rates(handle, 400)["out"]
        assert rates[0] == pytest.approx(1.0, abs=0.02)
        assert rates[1] == pytest.approx(0.5, abs=0.02)

    def test_carloni_variant_wedges_half_relay_pipeline(self):
        """The EXP-T6 ablation, reproduced batched: under the original
        discipline a half-relay pipeline with back pressure wedges."""
        graph = pipeline(3)
        for edge in graph.edges:
            if edge.relays:
                edge.relays = ("half",) * len(edge.relays)
        bp = [{"out": (False, False, True, True)}]
        old = BitplaneSkeletonSim(graph, bp,
                                  variant=ProtocolVariant.CARLONI)
        new = BitplaneSkeletonSim(graph, bp, variant=ProtocolVariant.CASU)
        old.run(200)
        new.run(200)
        assert new.accept_count(0, 0) > \
            10 * max(old.accept_count(0, 0), 1)

    def test_ambiguity_detected_on_half_ring(self):
        graph = ring(2, relays_per_arc=[["half"], ["half"]])
        batch = BitplaneSkeletonSim(graph, [{}],
                                    variant=ProtocolVariant.CARLONI)
        scalar = SkeletonSim(graph, variant=ProtocolVariant.CARLONI)
        batch.run(30)
        for _ in range(30):
            scalar.step()
        assert batch.ambiguous_cycles[0] == scalar.ambiguous_cycles

    def test_run_to_period_matches_scalar(self):
        graph = figure1()
        results = BitplaneSkeletonSim(
            graph, [{}, {"out": (False, True)}]).run_to_period()
        for mapping, result in zip([{}, {"out": (False, True)}],
                                   results):
            ref = SkeletonSim(graph, sink_patterns=mapping).run()
            assert (result.transient, result.period) == \
                (ref.transient, ref.period)
            assert result.shell_fires == ref.shell_fires
            assert result.sink_accepts == ref.sink_accepts


class TestAgainstScalar:
    """Every batch column must match a scalar run with the same script."""

    @pytest.mark.parametrize("graph", [
        pipeline(3, relays_per_hop=2), figure1(), figure2(), tree(2),
    ])
    def test_rates_match_scalar(self, graph):
        patterns = [
            {},
            {"out": (False, True)},
            {"out": (False, False, True)},
        ]
        sinks = [n.name for n in graph.sinks()]
        patterns = [
            {sinks[0]: p["out"]} if p else {} for p in patterns
        ]
        cycles = 600
        batch_rates = _sink_rates(select(graph, sink_patterns=patterns),
                                  cycles)[sinks[0]]
        for col, mapping in enumerate(patterns):
            scalar = SkeletonSim(graph, sink_patterns=mapping,
                                 detect_ambiguity=False)
            accepted = 0
            for _ in range(cycles):
                _f, acc = scalar.step()
                accepted += sum(acc)
            assert accepted / cycles == pytest.approx(
                float(batch_rates[col])), (graph.name, col)

    def test_shell_fires_match_scalar(self):
        graph = figure1()
        batch = BitplaneSkeletonSim(graph, [{}])
        batch.run(400)
        scalar = SkeletonSim(graph, detect_ambiguity=False)
        fires = {name: 0 for name in scalar.shell_names}
        for _ in range(400):
            f, _a = scalar.step()
            for name, fired in zip(scalar.shell_names, f):
                fires[name] += fired
        for name, count in fires.items():
            idx = batch.shell_names.index(name)
            assert batch.fire_count(idx, 0) == count


class TestSweeps:
    def test_backpressure_sweep(self):
        patterns = [{"out": tuple((i >> b) & 1 == 1 for b in range(3))}
                    for i in range(8)]
        rates = _sink_rates(select(pipeline(2), sink_patterns=patterns),
                            600)["out"]
        # Stop fraction grows with popcount; rate falls accordingly.
        assert rates[0] == pytest.approx(1.0, abs=0.02)
        assert rates[7] == pytest.approx(0.0, abs=0.02)
        for i in range(8):
            expected = 1 - bin(i).count("1") / 3
            assert rates[i] == pytest.approx(expected, abs=0.02)

    def test_stalled_instance_detection(self):
        patterns = [{}, {"out": (True,)}]  # instance 1: stop forever
        handle = select(pipeline(2), sink_patterns=patterns)
        handle.run_cycles(300)
        fires = handle.fire_counts()
        stalled = [i for i in range(handle.batch)
                   if any(row[i] == 0 for row in fires)]
        assert stalled == [1]

    def test_figure2_rate_in_batch(self):
        rates = _sink_rates(select(figure2(), batch=2), 600)
        assert rates["out"][0] == pytest.approx(0.5, abs=0.01)

    def test_reset(self):
        batch = BitplaneSkeletonSim(pipeline(2), [{}])
        batch.run(50)
        batch.reset()
        assert batch.cycle == 0
        assert all(batch.fire_count(i, 0) == 0
                   for i in range(len(batch.shell_names)))


class TestVerticalCounter:
    """``values`` unpacks every plane at once; ``value`` reads one
    plane and is the reference."""

    @pytest.mark.parametrize("planes", (1, 63, 64, 65, 217))
    def test_values_match_value(self, planes):
        import random

        from repro.skeleton.bitsim import _VerticalCounter

        rng = random.Random(planes)
        counter = _VerticalCounter()
        for width in (0, 1, planes // 2, planes, planes + 7):
            # Random words (all-zero slices among them) no wider than
            # *width* bits: planes past the highest set bit read zero,
            # and bits past the last plane are ignored.
            counter.slices = [rng.getrandbits(width) if width and
                              rng.random() < 0.8 else 0
                              for _ in range(rng.randint(2, 11))]
            assert counter.values(planes) == \
                [counter.value(p) for p in range(planes)]
        counter.slices = [0, 0]
        assert counter.values(planes) == [0] * planes
