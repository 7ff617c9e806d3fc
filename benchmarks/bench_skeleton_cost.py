"""EXP-D2: skeleton simulation cost vs full simulation.

Paper: "we are allowed to simulate just the skeleton of the system
consisting of stop and valid signals, thus the simulation cost is
absolutely negligible."
"""

import pytest

from repro.bench.runner import run_skeleton_cost
from repro.graph import pipeline
from repro.skeleton import SkeletonSim


def test_bench_cost_table(benchmark, emit):
    table, rows = benchmark.pedantic(run_skeleton_cost, rounds=1,
                                     iterations=1, args=(800,))
    emit("EXP-D2-skeleton-cost", table)
    # The skeleton must beat the full simulation on every size.
    for _name, _cycles, _sk, _full, speedup in rows:
        assert float(speedup.rstrip("x")) > 1.0


@pytest.mark.parametrize("stages", [4, 16, 64])
def test_bench_skeleton_cycles(benchmark, stages):
    """Raw skeleton stepping rate across system sizes."""
    graph = pipeline(stages, relays_per_hop=2)
    sim = SkeletonSim(graph, detect_ambiguity=False)

    def run():
        for _ in range(100):
            sim.step()

    benchmark(run)


@pytest.mark.parametrize("stages", [4, 16])
def test_bench_full_sim_cycles(benchmark, stages):
    """Raw full-simulation stepping rate for the same systems."""
    graph = pipeline(stages, relays_per_hop=2)
    system = graph.elaborate()
    system.finalize(strict=False)
    system.sim.reset()

    def run():
        system.sim.step(100)

    benchmark(run)


@pytest.mark.parametrize("batch", [8, 64])
def test_bench_batch_skeleton(benchmark, batch):
    """Bit-plane batch sweeps: per-instance cost drops with width."""
    from repro.skeleton import select

    graph = pipeline(8, relays_per_hop=2)
    patterns = [
        {"out": tuple((i >> b) & 1 == 1 for b in range(4))}
        for i in range(batch)
    ]
    handle = select(graph, sink_patterns=patterns, backend="bitsim")

    def run():
        handle.run_cycles(50)

    benchmark(run)


def test_bench_sweep_speedup(benchmark, emit):
    """EXP-D2b: 64-instance stop-script sweep, scalar loop vs the
    bit-plane batch backend behind ``repro.skeleton.backend.select``.

    The acceptance bar for the batch engine: a design-space sweep over
    64 back-pressure scripts must cost roughly one scalar run — at
    least 12x faster than looping the scalar engine, with identical
    (bit-exact) per-instance counts.  (The bar was 20x before the
    scalar hot loops were optimized in EXP-M1; the scalar baseline —
    the denominator — got ~30% faster.)
    """
    import time

    import numpy as np

    from repro.bench.tables import format_table
    from repro.lid.variant import DEFAULT_VARIANT
    from repro.skeleton.backend import select

    graph = pipeline(8, relays_per_hop=2)
    patterns = [
        {"out": tuple((i >> b) & 1 == 1 for b in range(6))}
        for i in range(64)
    ]
    cycles = 400

    def once(backend):
        start = time.perf_counter()
        handle = select(graph, DEFAULT_VARIANT, sink_patterns=patterns,
                        detect_ambiguity=False, backend=backend)
        handle.run_cycles(cycles)
        return time.perf_counter() - start, handle

    def measure():
        once("bitsim")  # warm the import and table-building paths
        scalar_times, batch_times = [], []
        for _ in range(3):
            t_s, scalar = once("scalar")
            t_b, batch = once("bitsim")
            assert np.array_equal(np.asarray(scalar.accept_counts()),
                                  np.asarray(batch.accept_counts()))
            assert np.array_equal(np.asarray(scalar.fire_counts()),
                                  np.asarray(batch.fire_counts()))
            scalar_times.append(t_s)
            batch_times.append(t_b)
        return min(scalar_times), min(batch_times)

    scalar_s, batch_s = benchmark.pedantic(measure, rounds=1,
                                           iterations=1)
    speedup = scalar_s / batch_s
    table = format_table(
        ("backend", "total", "per instance", "speedup"),
        [
            ("scalar loop", f"{scalar_s * 1e3:.1f} ms",
             f"{scalar_s / 64 * 1e3:.2f} ms", "1.0x"),
            ("bitsim", f"{batch_s * 1e3:.1f} ms",
             f"{batch_s / 64 * 1e3:.2f} ms", f"{speedup:.1f}x"),
        ],
        title=f"64-instance stop-script sweep ({graph.name}, "
              f"{cycles} cycles, best of 3)",
    )
    emit("EXP-D2b-sweep-speedup", table)
    assert speedup >= 12.0, (
        f"bit-plane sweep only {speedup:.1f}x faster than scalar loop")


def test_bench_batch_amortization(benchmark, emit):
    """The figure-style series: scalar vs batch cost per instance."""
    import time

    from repro.bench.tables import format_table
    from repro.skeleton import select

    graph = pipeline(8, relays_per_hop=2)
    cycles = 300
    # One sink stop in 100 cycles on both engines: a script that
    # repeats within the run keeps the bit-plane engine stepping every
    # cycle, where constant inputs would let run_cycles skip the
    # periodic tail (docs/bitsim.md) and the table would time the skip.
    script = {"out": (False,) * 99 + (True,)}

    def measure():
        rows = []
        start = time.perf_counter()
        scalar = SkeletonSim(graph, sink_patterns=script,
                             detect_ambiguity=False)
        for _ in range(cycles):
            scalar.step()
        scalar_s = time.perf_counter() - start
        for width in (1, 8, 64):
            batch = select(graph, sink_patterns=[script] * width,
                           backend="bitsim")
            start = time.perf_counter()
            batch.run_cycles(cycles)
            elapsed = time.perf_counter() - start
            rows.append((width, f"{elapsed * 1e3:.1f} ms",
                         f"{elapsed / width * 1e3:.2f} ms",
                         f"{scalar_s / (elapsed / width):.1f}x"))
        return rows, scalar_s

    (rows, scalar_s) = benchmark.pedantic(measure, rounds=1,
                                          iterations=1)
    table = format_table(
        ("batch width", "total", "per instance",
         "speedup vs scalar"),
        rows,
        title=f"Batch skeleton amortization ({cycles} cycles, one sink "
              f"stop in 100; scalar baseline {scalar_s * 1e3:.1f} ms)",
    )
    emit("EXP-D2-batch-amortization", table)
