"""Golden regression over checked-in benchmark artifacts.

Two artifacts under ``benchmarks/results/`` carry headline numbers of
the reproduction, and this module re-derives them through the unified
backend API (``repro.skeleton.backend.select``) so a semantic change in
either engine shows up as a mismatch against the checked-in files:

* ``EXP-T6-half-relay-ablation.txt`` is cycle-deterministic — the
  token counts must match exactly;
* ``EXP-D2-skeleton-cost.txt`` carries wall-clock timings — the shape
  and the qualitative claim (skeleton cheaper than full simulation on
  every size) are checked, and the claim is re-established by a fresh
  measurement.
"""

import dataclasses
import os
import re

import pytest

from repro.bench import workloads
from repro.graph import pipeline
from repro.ir import lower
from repro.lid.variant import DEFAULT_VARIANT, ProtocolVariant
from repro.skeleton import SkeletonSim, check_deadlock, select

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                           "benchmarks", "results")


def _read(name):
    with open(os.path.join(RESULTS_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def _half_relay_pipeline(stages):
    graph = pipeline(stages)
    for edge in graph.edges:
        if edge.relays:
            edge.relays = ("half",) * len(edge.relays)
    return graph


class TestHalfRelayAblationGolden:
    """EXP-T6: deterministic token counts, re-derived via select()."""

    @pytest.fixture(scope="class")
    def golden_rows(self):
        text = _read("EXP-T6-half-relay-ablation.txt")
        rows = []
        for line in text.splitlines():
            m = re.match(r"^(\d+)\s+(\d+)\s+(\d+)\s*$", line)
            if m:
                rows.append(tuple(int(g) for g in m.groups()))
        assert rows, "no data rows found in the golden file"
        return rows

    def test_covers_expected_stage_counts(self, golden_rows):
        assert [stages for stages, _o, _n in golden_rows] == [2, 3, 4]

    def test_token_counts_rederive_exactly(self, golden_rows):
        bp = [{"out": (False, False, True, True)}]
        for stages, old_tokens, new_tokens in golden_rows:
            graph = _half_relay_pipeline(stages)
            measured = {}
            for variant, expected in (
                    (ProtocolVariant.CARLONI, old_tokens),
                    (ProtocolVariant.CASU, new_tokens)):
                handle = select(graph, variant, sink_patterns=bp,
                                detect_ambiguity=False)
                handle.run_cycles(200)
                measured[variant] = int(handle.accept_counts()[0][0])
                assert measured[variant] == expected, (stages, variant)
            # The headline claim the table exists for.
            assert measured[ProtocolVariant.CASU] > \
                10 * measured[ProtocolVariant.CARLONI]


class TestSkeletonCostGolden:
    """EXP-D2: timing table shape + the 'negligible cost' claim."""

    @pytest.fixture(scope="class")
    def golden_rows(self):
        text = _read("EXP-D2-skeleton-cost.txt")
        rows = []
        for line in text.splitlines():
            m = re.match(
                r"^(\S+)\s+(\d+)\s+[\d.]+ ms\s+[\d.]+ ms\s+([\d.]+)x",
                line)
            if m:
                rows.append((m.group(1), int(m.group(2)),
                             float(m.group(3))))
        assert rows, "no data rows found in the golden file"
        return rows

    def test_covers_expected_systems(self, golden_rows):
        assert [(name, cycles) for name, cycles, _s in golden_rows] \
            == [("pipeline4", 800), ("pipeline16", 800),
                ("pipeline64", 800)]

    def test_checked_in_speedups_all_positive(self, golden_rows):
        for name, _cycles, speedup in golden_rows:
            assert speedup > 1.0, name

    def test_skeleton_beats_full_sim_via_backend_api(self, golden_rows):
        """Re-establish the claim with a fresh (shorter) measurement."""
        import time

        for name, _cycles, _speedup in golden_rows:
            stages = int(name.removeprefix("pipeline"))
            cycles = 200
            graph = pipeline(stages, relays_per_hop=2)

            start = time.perf_counter()
            handle = select(graph, DEFAULT_VARIANT, batch=1,
                            detect_ambiguity=False)
            handle.run_cycles(cycles)
            skeleton_s = time.perf_counter() - start

            graph = pipeline(stages, relays_per_hop=2)
            system = graph.elaborate()
            system.finalize(strict=False)
            system.sim.reset()
            start = time.perf_counter()
            system.sim.step(cycles)
            full_s = time.perf_counter() - start

            assert skeleton_s < full_s, (
                f"{name}: skeleton {skeleton_s * 1e3:.1f} ms not under "
                f"full sim {full_s * 1e3:.1f} ms")


def _all_workload_graphs():
    """(label, graph) for every topology the experiment benches use."""
    cases = [("figure1", workloads.figure1_workload()),
             ("figure2", workloads.figure2_workload())]
    cases += [(f"ring_s{s}_r{r}", g)
              for s, r, g in workloads.ring_sweep()]
    cases += [(f"reconv_{i}", g)
              for i, (_a, _b, g) in
              enumerate(workloads.reconvergent_sweep())]
    cases += [(g.name, g) for _d, _r, g in workloads.tree_sweep()]
    cases += [(f"composed_{i}", g)
              for i, (_label, g) in
              enumerate(workloads.composition_cases())]
    cases += [(f"deadlock_{i}_{g.name}", g)
              for i, (_cls, _exp, g) in
              enumerate(workloads.deadlock_suite())]
    cases += [(g.name, g)
              for g in workloads.pipeline_scaling(sizes=(4, 16))]
    return cases


class TestLoweringParity:
    """The IR path is bit-invisible on every bench workload.

    Simulating from an explicit :class:`repro.ir.LoweredSystem` must
    produce byte-identical results, verdicts and metrics snapshots to
    simulating from the source graph — on both engines — for every
    topology family the experiment benches quantify over (including
    the deadlock suite and the composed systems).
    """

    @pytest.mark.parametrize(
        "label,graph", _all_workload_graphs(),
        ids=[label for label, _g in _all_workload_graphs()])
    def test_scalar_results_bit_identical(self, label, graph):
        via_graph = SkeletonSim(graph, detect_ambiguity=True)
        via_ir = SkeletonSim(lower(graph), detect_ambiguity=True)
        a = via_graph.run(max_cycles=5_000)
        b = via_ir.run(max_cycles=5_000)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert via_graph.metrics_snapshot() == via_ir.metrics_snapshot()

    @pytest.mark.parametrize(
        "label,graph", _all_workload_graphs(),
        ids=[label for label, _g in _all_workload_graphs()])
    def test_vectorized_results_bit_identical(self, label, graph):
        """The batch engine (bit planes across instances)."""
        bp = [None, {name: (False, True)
                     for name in lower(graph).sink_names}]
        via_graph = select(graph, DEFAULT_VARIANT, sink_patterns=bp,
                           backend="bitsim")
        via_ir = select(lower(graph), DEFAULT_VARIANT,
                        sink_patterns=bp, backend="bitsim")
        results_a = via_graph.run(max_cycles=5_000)
        results_b = via_ir.run(max_cycles=5_000)
        for a, b in zip(results_a, results_b):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert via_graph.metrics_snapshots() == \
            via_ir.metrics_snapshots()

    @pytest.mark.parametrize(
        "label,graph",
        [(f"{cls}/{g.name}", g)
         for cls, _exp, g in workloads.deadlock_suite()],
        ids=[f"{i}_{g.name}" for i, (_c, _e, g) in
             enumerate(workloads.deadlock_suite())])
    def test_deadlock_verdicts_identical(self, label, graph):
        a = check_deadlock(graph)
        b = check_deadlock(lower(graph))
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
