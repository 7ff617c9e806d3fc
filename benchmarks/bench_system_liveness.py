"""EXP-D1b (extension): exhaustive liveness over all environments.

The paper: "Since liveness is topology dependent, we couldn't verify
formally the protocol as such" — and resorted to simulating scripts.
For small concrete topologies this bench does what the paper could not:
explores every environment behaviour (nondeterministic source offers,
nondeterministic sink stops, hold contract enforced) and proves
deadlock-freedom, or exhibits a reachable stuck state.

The slow-domain GALS rows (domains ticking once every 7 to 16 base
cycles) need the clock phase in the explored state and the exact stuck
test; each LIVE row is cross-checked against ``check_deadlock``.
"""

import pytest

from repro.bench.tables import format_table
from repro.graph import (
    figure1,
    figure2,
    parse_topology,
    pipeline,
    ring,
    self_loop,
    tree,
)
from repro.lid.variant import ProtocolVariant
from repro.skeleton import check_deadlock
from repro.verify import verify_system_liveness

CASES = [
    ("pipeline3", pipeline(3)),
    ("tree_d2", tree(2)),
    ("figure1", figure1()),
    ("figure2", figure2()),
    ("ring3", ring(3, relays_per_arc=1)),
    ("self_loop", self_loop(relays=2)),
    ("ring_half_full", ring(2, relays_per_arc=[["half"], ["full"]])),
    ("ring_all_half", ring(2, relays_per_arc=[["half"], ["half"]])),
]

#: Slow clock domains, depth-2 bridges (spec strings are the names).
GALS_CASES = [
    (spec, parse_topology(spec))
    for spec in (f"{family}:rates={rates}"
                 for family in ("gals-chain", "gals-ring")
                 for rates in ("1/8+1/8", "1/16+1", "1/9+1/7",
                               "1/16+1/16"))
]


def test_bench_exhaustive_liveness_table(benchmark, emit):
    def run():
        rows = []
        for name, graph in CASES + GALS_CASES:
            for variant in (ProtocolVariant.CASU,
                            ProtocolVariant.CARLONI):
                result = verify_system_liveness(graph, variant=variant)
                if result.live:
                    # A proof over all environments covers the default
                    # script that check_deadlock simulates.
                    assert not check_deadlock(
                        graph, variant=variant).deadlocked, name
                rows.append((
                    name, str(variant),
                    "LIVE (proved)" if result.live else "STUCK STATE",
                    result.reachable_states,
                    result.transitions,
                ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("EXP-D1b-exhaustive-liveness", format_table(
        ("system", "variant", "verdict", "states", "transitions"),
        rows,
        title="Exhaustive liveness: all environment behaviours "
              "(what the paper's script-based simulation approximates)",
    ))
    verdicts = {(r[0], r[1]): r[2] for r in rows}
    # Every legal system is proved live under both variants...
    for name, _graph in CASES + GALS_CASES:
        if "half" not in name:
            assert verdicts[(name, "casu")].startswith("LIVE")
            assert verdicts[(name, "carloni")].startswith("LIVE")
    # ...and the hazard class is live refined / stuck original.
    for name in ("ring_half_full", "ring_all_half"):
        assert verdicts[(name, "casu")].startswith("LIVE")
        assert verdicts[(name, "carloni")] == "STUCK STATE"


@pytest.mark.parametrize("name,graph", CASES[:6])
def test_bench_liveness_exploration_speed(benchmark, name, graph):
    def run():
        return verify_system_liveness(graph)

    result = benchmark(run)
    assert result.live
