"""BENCH EXP-G1: GALS mixed-rate engines — scalar vs bit-plane batch.

The GALS extension adds a firing-schedule gate and bridge occupancy
updates to the skeleton engines.  This bench pins two facts on the
canonical two-domain ring (``gals_ring(rates=(1, 1/2),
shells_per_domain=2)``, where the static formula is exact at 1/2):

* **throughput model**: ``static_system_throughput`` and the simulated
  steady state agree exactly (the bench aborts on any drift — this is
  the EXP-G1 correctness anchor, not just a speed number);
* **engine cost**: per-instance cycle rate of the scalar engine vs the
  bit-plane batch engine (``select()`` at batch width 32).  A clock
  domain ticks for every plane or for none, so the batch engine checks
  each schedule once per cycle for the whole batch; its per-instance
  rate must not fall below the scalar rate (floor 1.0x after noise
  margin).

Emits ``BENCH_EXP-G1-gals.json`` whose counters
(``scalar_cycles_per_sec``, ``bitsim_cycles_per_sec_per_instance``,
``speedup``) feed the ``obs regress`` trajectory scan alongside the
other engine benches.
"""

from fractions import Fraction
from time import perf_counter

from repro.analysis import simulated_throughput, static_system_throughput
from repro.bench.tables import format_table
from repro.graph import gals_ring
from repro.skeleton import SkeletonSim, select

CYCLES = 2000
ROUNDS = 3
BATCH = 32

#: Keep a generous margin: CI machines are noisy, and the point is to
#: catch the batch path degenerating to a per-instance loop.
SPEEDUP_FLOOR = 1.0
#: One sink stop in a hundred cycles, on both engines: a script that
#: repeats within the run keeps the bit-plane engine stepping every
#: cycle, where constant inputs would let ``run_cycles`` skip the
#: periodic tail (docs/bitsim.md) and the rate would time the skip.
SINK_SCRIPT = {"out": (False,) * 99 + (True,)}


def _graph():
    return gals_ring(rates=(Fraction(1), Fraction(1, 2)),
                     shells_per_domain=2)


def _scalar_rate() -> float:
    best = 0.0
    for _ in range(ROUNDS):
        sim = SkeletonSim(_graph(), sink_patterns=SINK_SCRIPT,
                          detect_ambiguity=False)
        started = perf_counter()
        for _ in range(CYCLES):
            sim.step()
        best = max(best, CYCLES / (perf_counter() - started))
    return best


def _bitsim_rate() -> float:
    """Per-instance cycles/s at batch width BATCH."""
    best = 0.0
    for _ in range(ROUNDS):
        handle = select(_graph(), sink_patterns=[SINK_SCRIPT] * BATCH,
                        detect_ambiguity=False)
        assert handle.name == "bitsim"
        started = perf_counter()
        handle.run_cycles(CYCLES)
        best = max(best, CYCLES * BATCH / (perf_counter() - started))
    return best


def test_bench_gals_engines(benchmark, emit):
    graph = _graph()
    formula = static_system_throughput(graph)
    simulated = simulated_throughput(graph)
    assert formula == simulated == Fraction(1, 2), (
        f"EXP-G1 anchor drifted: formula={formula} simulated={simulated}"
        " (expected exactly 1/2 on the two-domain ring)")

    started = perf_counter()
    scalar = _scalar_rate()
    bitsim = _bitsim_rate()
    wall = perf_counter() - started
    benchmark.pedantic(_scalar_rate, rounds=1, iterations=1)

    speedup = bitsim / scalar
    assert speedup >= SPEEDUP_FLOOR, (
        f"bit-plane GALS engine fell to {speedup:.2f}x the scalar "
        f"per-instance rate (floor {SPEEDUP_FLOOR}x): batching no "
        "longer amortises the firing-schedule gate")

    rows = [
        ("scalar", 1, f"{scalar:,.0f}", "1.00"),
        ("bitsim", BATCH, f"{bitsim:,.0f}", f"{speedup:.2f}"),
    ]
    table = format_table(
        ("backend", "batch", "inst-cycles/s", "speedup"),
        rows,
        title=(f"EXP-G1: GALS two-domain ring (rates 1, 1/2; "
               f"throughput exactly {formula}; one sink stop in 100)"),
    )
    emit("EXP-G1-gals", table, rows=rows,
         wall_seconds=wall,
         params={"topology": "gals-ring:rates=1+1/2,shells=2",
                 "cycles": CYCLES, "batch": BATCH,
                 "throughput": str(formula)},
         counters={"scalar_cycles_per_sec": round(scalar),
                   "bitsim_cycles_per_sec_per_instance":
                       round(bitsim),
                   "speedup": round(speedup, 3)})
