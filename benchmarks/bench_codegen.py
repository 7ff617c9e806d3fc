"""EXP-C1-codegen: compiled cycle functions beat the scalar engine >=5x.

The codegen backend specializes the whole skeleton update — stop
settling in Gauss–Seidel order, relay-station edges, shell firing
rules — into straight-line Python for one topology, compiles it once,
and reuses the compiled plan for every simulator over that topology.
The claim is threefold, and all three parts are asserted:

* on the paper's feedback example (figure 2) and a deeper pipeline the
  compiled engine sustains at least 5x the scalar engine's cycles/s,
  measured through the same ``select()`` backend interface campaigns
  use;
* one topology costs one compile no matter how many simulators run it
  (in-process plan cache), and a fresh process with a disk compile
  cache skips generation entirely (source-text hit);
* the campaign report is **byte-identical** across all four backends —
  speed without a second source of truth.

Emits ``BENCH_EXP-C1-codegen.json`` with wall times, speedups and the
cache hit counters.
"""

import tempfile
from time import perf_counter

from repro.bench.tables import format_table
from repro.exec import ResultCache
from repro.graph import figure2, pipeline
from repro.inject import skeleton_campaign
from repro.ir import lower
from repro.lid.variant import ProtocolVariant
from repro.skeleton import CodegenSkeletonSim, select
from repro.skeleton.codegen import STATS, clear_plan_cache, plan_for

CYCLES = 4000
ROUNDS = 5
MIN_SPEEDUP = 5.0
BACKENDS = ("scalar", "bitsim", "codegen")


def _best_wall(graph, backend):
    """Best-of-rounds wall seconds for CYCLES cycles via select()."""
    select(graph, backend=backend).run_cycles(64)  # warm (compiles)
    best = float("inf")
    for _ in range(ROUNDS):
        handle = select(graph, backend=backend)  # fresh state per round
        started = perf_counter()
        handle.run_cycles(CYCLES)
        best = min(best, perf_counter() - started)
    return best


def test_bench_codegen_speedup(benchmark, emit):
    cases = [("figure2", figure2()), ("pipeline6", pipeline(6))]
    rows, counters = [], {}
    total_wall = 0.0
    for name, graph in cases:
        scalar_wall = _best_wall(graph, "scalar")
        codegen_wall = _best_wall(graph, "codegen")
        total_wall += scalar_wall + codegen_wall
        speedup = (scalar_wall / codegen_wall if codegen_wall
                   else float("inf"))
        assert speedup >= MIN_SPEEDUP, (
            f"codegen only reached {speedup:.2f}x over the scalar "
            f"backend on {name} (expected >= {MIN_SPEEDUP:.0f}x)")
        rows.append((name,
                     f"{CYCLES / scalar_wall:,.0f}",
                     f"{CYCLES / codegen_wall:,.0f}",
                     f"{speedup:.1f}x"))
        counters[f"{name}_scalar_cps"] = round(CYCLES / scalar_wall)
        counters[f"{name}_codegen_cps"] = round(CYCLES / codegen_wall)
        counters[f"{name}_speedup_x"] = round(speedup, 2)
    benchmark.pedantic(_best_wall, args=(figure2(), "codegen"),
                       rounds=1, iterations=1)

    # One compile serves many simulators over the same topology.
    clear_plan_cache()
    STATS.reset()
    sims = [CodegenSkeletonSim(figure2()) for _ in range(16)]
    assert STATS.compiles == 1 and STATS.plan_hits == len(sims) - 1, (
        f"expected 1 compile for 16 sims, got {STATS.compiles} "
        f"compiles / {STATS.plan_hits} plan hits")
    counters["sims_per_compile"] = len(sims)

    # A second "process" (cleared plan cache, kept disk cache) reloads
    # the generated source instead of regenerating it.
    low = lower(figure2())
    plan_kwargs = dict(fixpoint="least", detect_ambiguity=True,
                       metrics_on=False, events_on=False)
    with tempfile.TemporaryDirectory() as tmp:
        disk = ResultCache.disk(tmp)
        clear_plan_cache()
        STATS.reset()
        started = perf_counter()
        plan_for(low, ProtocolVariant.CASU, disk_cache=disk,
                 **plan_kwargs)
        cold_wall = perf_counter() - started
        assert STATS.compiles == 1 and STATS.disk_hits == 0
        clear_plan_cache()
        STATS.reset()
        started = perf_counter()
        plan_for(low, ProtocolVariant.CASU, disk_cache=disk,
                 **plan_kwargs)
        warm_wall = perf_counter() - started
        assert STATS.disk_hits == 1 and STATS.compiles == 0, (
            "second-run compile cache missed: expected a disk hit")
    counters["compile_cold_us"] = round(cold_wall * 1e6)
    counters["compile_disk_hit_us"] = round(warm_wall * 1e6)

    # Byte-identity: the whole campaign report, every backend.
    kwargs = dict(variant=ProtocolVariant.CASU,
                  classes=("stop", "void"), cycles=64, samples=24,
                  seed=11)
    reports = {b: skeleton_campaign(figure2(), backend=b, **kwargs)
               for b in BACKENDS}
    for backend in BACKENDS[1:]:
        assert reports[backend].to_json() == reports["scalar"].to_json(), (
            f"{backend} campaign report differs from scalar: the "
            f"byte-identity contract regressed")

    table = format_table(
        ("topology", "scalar [cyc/s]", "codegen [cyc/s]", "speedup"),
        rows,
        title=f"EXP-C1-codegen: compiled cycle functions vs the scalar "
              f"engine ({CYCLES} cycles, best of {ROUNDS} rounds, via "
              f"select().run_cycles)",
    )
    emit("EXP-C1-codegen", table, rows=rows, wall_seconds=total_wall,
         params={"cycles": CYCLES, "rounds": ROUNDS,
                 "topologies": [name for name, _g in cases],
                 "min_speedup": MIN_SPEEDUP},
         counters=counters)
