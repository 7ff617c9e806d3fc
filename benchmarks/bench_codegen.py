"""EXP-C1-codegen: the compiled one-plane plan beats the scalar engine >=5x.

:mod:`repro.skeleton.codegen` specializes the whole skeleton update —
stop settling, relay-station edges, shell firing rules — into
straight-line Python over plane words for one topology, compiles it
once, and reuses the compiled plan for every simulator over that
topology.  A batch of one instance (``select(graph, batch=1,
backend="bitsim")``) runs the plan with plain-int counters.  The claim
is threefold, and all three parts are asserted:

* on the paper's feedback example (figure 2) and a deeper pipeline the
  one-plane plan sustains at least 5x the scalar engine's cycles/s,
  measured through the same ``select()`` backend interface campaigns
  use;
* one topology costs one compile no matter how many one-plane
  simulators run it (in-process plan cache);
* the campaign report is **byte-identical** across both backends —
  speed without a second source of truth.

Emits ``BENCH_EXP-C1-codegen.json`` with wall times, speedups and the
cache hit counters.
"""

from time import perf_counter

from repro.bench.tables import format_table
from repro.graph import figure2, pipeline
from repro.inject import skeleton_campaign
from repro.lid.variant import ProtocolVariant
from repro.skeleton import BitplaneSkeletonSim, select
from repro.skeleton.codegen import STATS, clear_plan_cache

CYCLES = 4000
ROUNDS = 5
MIN_SPEEDUP = 5.0
BACKENDS = ("scalar", "bitsim")
#: One stop cycle in a hundred at the sink, on both engines.  A script
#: that repeats within the run keeps the bit-plane engine stepping
#: every cycle: with constant inputs ``run_cycles`` would skip its
#: periodic tail (docs/bitsim.md) and the table would time the skip,
#: not the compiled step.
SINK_SCRIPT = {"out": (False,) * 99 + (True,)}


def _best_walls(graph, backends=BACKENDS):
    """Best-of-rounds wall seconds for CYCLES cycles of one instance
    via select(), per backend (``bitsim`` runs the compiled one-plane
    plan).  Each round times every backend once, so a burst of noise
    on a shared host lands on both sides of the ratio alike."""
    def fresh(backend):
        return select(graph, sink_patterns=[SINK_SCRIPT],
                      backend=backend)

    for backend in backends:
        fresh(backend).run_cycles(64)  # warm
    best = dict.fromkeys(backends, float("inf"))
    for _ in range(ROUNDS):
        for backend in backends:
            handle = fresh(backend)
            started = perf_counter()
            handle.run_cycles(CYCLES)
            best[backend] = min(best[backend], perf_counter() - started)
    return best


def test_bench_codegen_speedup(benchmark, emit):
    cases = [("figure2", figure2()), ("pipeline6", pipeline(6))]
    rows, counters = [], {}
    total_wall = 0.0
    for name, graph in cases:
        walls = _best_walls(graph)
        scalar_wall, compiled_wall = walls["scalar"], walls["bitsim"]
        total_wall += scalar_wall + compiled_wall
        speedup = (scalar_wall / compiled_wall if compiled_wall
                   else float("inf"))
        assert speedup >= MIN_SPEEDUP, (
            f"the one-plane plan only reached {speedup:.2f}x over the "
            f"scalar backend on {name} (expected >= {MIN_SPEEDUP:.0f}x)")
        rows.append((name,
                     f"{CYCLES / scalar_wall:,.0f}",
                     f"{CYCLES / compiled_wall:,.0f}",
                     f"{speedup:.1f}x"))
        counters[f"{name}_scalar_cps"] = round(CYCLES / scalar_wall)
        counters[f"{name}_codegen_cps"] = round(CYCLES / compiled_wall)
        counters[f"{name}_speedup_x"] = round(speedup, 2)
    benchmark.pedantic(_best_walls, args=(figure2(), ("bitsim",)),
                       rounds=1, iterations=1)

    # One compile serves many simulators over the same topology.
    clear_plan_cache()
    STATS.reset()
    started = perf_counter()
    sims = [BitplaneSkeletonSim(figure2(), batch=1) for _ in range(16)]
    build_wall = perf_counter() - started
    assert STATS.compiles == 1 and STATS.plan_hits == len(sims) - 1, (
        f"expected 1 compile for 16 sims, got {STATS.compiles} "
        f"compiles / {STATS.plan_hits} plan hits")
    assert len({id(sim._plan) for sim in sims}) == 1
    counters["sims_per_compile"] = len(sims)
    counters["build_16_sims_us"] = round(build_wall * 1e6)

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
        ("topology", "scalar [cyc/s]", "one-plane plan [cyc/s]",
         "speedup"),
        rows,
        title=f"EXP-C1-codegen: the compiled one-plane plan vs the "
              f"scalar engine ({CYCLES} cycles, best of {ROUNDS} rounds, "
              f"via select(batch=1).run_cycles, one sink stop in 100)",
    )
    emit("EXP-C1-codegen", table, rows=rows, wall_seconds=total_wall,
         params={"cycles": CYCLES, "rounds": ROUNDS,
                 "topologies": [name for name, _g in cases],
                 "min_speedup": MIN_SPEEDUP},
         counters=counters)
