"""EXP-B1: bit-parallel fault campaigns beat the scalar engine >=10x.

The bit-plane backend packs one fault experiment per bit of a Python
integer and advances every experiment with the same handful of bitwise
operations per signal per cycle.  On the paper's feedback example
(figure 2) an exhaustive boundary campaign is ~160 columns; the scalar
backend pays one full simulation per column while bitsim pays one
bit-parallel run for all of them (one plane each, one golden plane
0).  Both backends classify
the identical precomputed fault list (fault-list generation is not
part of the claim), and the contract is twofold — both halves are
asserted, not just reported:

* the bitsim report is **byte-identical** to the scalar report (the
  whole point of the differential harness — speed without a second
  source of truth), and
* the campaign completes at least 10x faster than the scalar backend.

Emits ``BENCH_EXP-B1-bitsim-campaign.json`` with both wall times and
the measured speedup.
"""

from time import perf_counter

from repro.bench.tables import format_table
from repro.graph import figure2
from repro.inject import generate_faults, skeleton_campaign
from repro.inject.campaign import (_SINK_KINDS, _SOURCE_KINDS,
                                   endpoint_scripts)
from repro.lid.variant import ProtocolVariant

CYCLES = 400
WINDOW = (0, 40)
CLASSES = ("stop", "void", "payload")
MIN_FAULTS = 48
MIN_SPEEDUP = 10.0


def _boundary_faults():
    """Every expressible boundary fault in the window — the workload
    the bit-plane backend accelerates (interior wire faults are
    skipped identically by both backends, which would only dilute the
    measurement with shared bookkeeping)."""
    graph = figure2()
    sinks, sources = endpoint_scripts(graph, ProtocolVariant.CASU)
    faults = generate_faults(graph, classes=CLASSES, exhaustive=True,
                             window=WINDOW, cycles=CYCLES, seed=0)
    return [
        spec for spec in faults
        if (spec.kind in _SINK_KINDS and spec.target in sinks)
        or (spec.kind in _SOURCE_KINDS and spec.target in sources)
        or (spec.kind == "payload" and spec.target in sinks)
    ]


def _campaign(backend, faults):
    return skeleton_campaign(
        figure2(), variant=ProtocolVariant.CASU, cycles=CYCLES,
        strict=True, faults=faults, backend=backend)


def test_bench_bitsim_campaign(benchmark, emit):
    faults = _boundary_faults()
    # Warm both paths once so the timed runs compare steady state.
    _campaign("scalar", faults)
    _campaign("bitsim", faults)

    started = perf_counter()
    scalar = _campaign("scalar", faults)
    scalar_wall = perf_counter() - started
    started = perf_counter()
    bitsim = _campaign("bitsim", faults)
    bitsim_wall = perf_counter() - started
    benchmark.pedantic(_campaign, args=("bitsim", faults),
                       rounds=1, iterations=1)

    n_faults = len(bitsim.results)
    assert n_faults >= MIN_FAULTS, (
        f"exhaustive window produced only {n_faults} expressible "
        f"faults (expected >= {MIN_FAULTS})")
    assert bitsim.to_json() == scalar.to_json(), (
        "bitsim campaign report differs from the scalar report: the "
        "byte-identity contract regressed")

    speedup = scalar_wall / bitsim_wall if bitsim_wall else float("inf")
    assert speedup >= MIN_SPEEDUP, (
        f"bitsim only reached {speedup:.1f}x over the scalar backend "
        f"on {n_faults} faults (expected >= {MIN_SPEEDUP:.0f}x)")

    counts = bitsim.counts()
    rows = [
        ("scalar", f"{scalar_wall:.3f}", "1.0x"),
        ("bitsim", f"{bitsim_wall:.3f}", f"{speedup:.1f}x"),
    ]
    table = format_table(
        ("backend", "wall [s]", "speedup"),
        rows,
        title=f"EXP-B1: exhaustive boundary campaign on figure2 "
              f"({n_faults} faults, {CYCLES} cycles, strict Casu) — "
              f"bit-plane packing vs one scalar run per fault",
    )
    emit("EXP-B1-bitsim-campaign", table, rows=rows,
         wall_seconds=scalar_wall + bitsim_wall,
         params={"cycles": CYCLES, "window": list(WINDOW),
                 "classes": list(CLASSES), "topology": "figure2",
                 "strict": True, "exhaustive": True},
         counters={"faults": n_faults,
                   "scalar_wall_ms": round(scalar_wall * 1e3, 1),
                   "bitsim_wall_ms": round(bitsim_wall * 1e3, 1),
                   "speedup_x": round(speedup, 1),
                   **{f"verdict_{k}": v for k, v in counts.items()
                      if v}})
