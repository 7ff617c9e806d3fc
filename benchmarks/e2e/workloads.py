"""Seeded manifest generators for the four end-to-end workloads.

The benchmark seed never reaches the program: it only picks the
generated ``repro-lid`` argv lists and ``serve`` JSON bodies.  Each
workload cycles through a fixed list of templates (so every seed sees
the same mix of topology families and manifest shapes) and draws the
per-manifest parameters from ``random.Random(f"{workload}:{seed}:{i}")``.

Program seeds are disjoint by construction: measured manifest ``i``
of benchmark seed ``s`` uses ``1 + (s mod 10_000) * 100_000 + i``, the
serve hot set and the check manifests sit at offset 90_000 inside that
block, and warm-up manifests use ``WARMUP_SEED + k``, which no measured
seed reaches — so warm-ups never pre-fill a cache entry that a measured
manifest could hit.
"""

from __future__ import annotations

import os
import random
from typing import Dict, Iterator, List

#: Program-seed blocks (one per benchmark seed modulo this).
SEED_BLOCKS = 10_000
WARMUP_SEED = 1_000_000_000
HOT_OFFSET = 90_000

WORKLOADS = ("lid-campaign", "skeleton-campaign", "analysis", "serve-mix")

#: Manifests per second of ``--seconds`` replayed twice by a traced
#: run (untraced, then traced).  A fixed count makes every per-layer
#: count exact for a given seed and run length.
TRACE_RATE = {"lid-campaign": 3.0, "skeleton-campaign": 2.5,
              "analysis": 15.0, "serve-mix": 10.0}


def program_seed(seed: int, index: int) -> int:
    return 1 + (seed % SEED_BLOCKS) * 100_000 + index


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# -- lid-campaign -------------------------------------------------------

_LID_TOPOLOGIES = (
    lambda r: "figure1",
    lambda r: f"figure2:relays={r.randint(1, 3)}",
    lambda r: f"ring:shells={r.randint(2, 3)}",
    lambda r: f"pipeline:stages={r.randint(3, 4)}",
    lambda r: "tree:depth=2",
    lambda r: "reconvergent",
    lambda r: "composed",
    lambda r: f"dag:shells={r.randint(3, 4)}",
    lambda r: f"loopy:shells={r.randint(3, 4)}",
)
_LID_FAULTS = ("stop,void", "stop,void,payload", "stop,void,drop,duplicate",
               "phantom,delayed-stop,shell", "stop,void,payload,drop")


def _lid_campaign(rng: random.Random, index: int, pseed: int,
                  work: str, small: bool) -> Dict:
    topology = _LID_TOPOLOGIES[index % len(_LID_TOPOLOGIES)](rng)
    cycles = 64 if small else rng.choice((80, 96, 112))
    samples = 8 if small else rng.randint(8, 14)
    fmt = rng.choice(("json", "table"))
    output = os.path.join(work, f"lid-{pseed}.{fmt}")
    argv = ["inject", "--topology", topology, "--cycles", str(cycles),
            "--samples", str(samples), "--faults", rng.choice(_LID_FAULTS),
            "--seed", str(pseed), "--format", fmt, "--output", output,
            "--ledger", os.path.join(work, "ledger.jsonl")]
    if rng.random() < 0.3:
        argv.append("--strict")
    return {"argv": argv, "output": output, "exits": (0,)}


# -- skeleton-campaign --------------------------------------------------

def _exhaustive_window(rng: random.Random, small: bool) -> List[str]:
    topology = rng.choice((f"figure2:relays={rng.randint(1, 3)}",
                           f"ring:shells={rng.randint(2, 3)}",
                           f"pipeline:stages={rng.randint(3, 4)}"))
    cycles = 120 if small else 600
    width = 8 if small else rng.randint(24, 36)
    lo = rng.randint(0, cycles // 4)
    return ["--topology", topology, "--cycles", str(cycles), "--exhaustive",
            "--window", f"{lo}:{lo + width}",
            "--faults", rng.choice(("stop,void", "stop,void,payload"))]


def _sampled(rng: random.Random, small: bool) -> List[str]:
    topology = rng.choice(("butterfly:lanes=4", "tree:depth=3",
                           "dag:shells=5"))
    return ["--topology", topology, "--cycles", str(120 if small else 400),
            "--samples", str(16 if small else rng.choice((48, 64))),
            "--faults", rng.choice(("stop,void", "stop,void,payload,drop"))]


def _gals(rng: random.Random, small: bool) -> List[str]:
    family = rng.choice(("gals-ring", "gals-chain"))
    rates = rng.choice(("1+1/2", "1+2/3", "1+1/2+1/3"))
    return ["--topology", f"{family}:rates={rates}",
            "--cycles", str(120 if small else rng.choice((600, 800))),
            "--samples", str(16 if small else rng.choice((48, 64))),
            "--faults", "stop,void,cdc"]


_SKELETON_SHAPES = (_exhaustive_window, _sampled, _gals)


def _skeleton_campaign(rng: random.Random, index: int, pseed: int,
                       work: str, small: bool) -> Dict:
    shape = _SKELETON_SHAPES[index % len(_SKELETON_SHAPES)]
    # Checks compare report bytes across backends, which only the JSON
    # rendering allows (the table header names the backend).
    fmt = "json" if small else rng.choice(("json", "json", "table"))
    output = os.path.join(work, f"skel-{pseed}.{fmt}")
    argv = (["inject", "--engine", "skeleton", "--backend", "auto"]
            + shape(rng, small)
            + ["--seed", str(pseed), "--format", fmt, "--output", output,
               "--ledger", os.path.join(work, "ledger.jsonl")])
    if rng.random() < 0.3:
        argv.append("--strict")
    return {"argv": argv, "output": output, "exits": (0,)}


# -- analysis -----------------------------------------------------------

_ANALYSIS_TOPOLOGIES = (
    lambda r: "figure1",
    lambda r: f"figure2:relays={r.randint(1, 3)}",
    lambda r: f"ring:shells={r.randint(2, 3)}",
    lambda r: f"pipeline:stages={r.randint(3, 4)}",
    lambda r: "reconvergent",
    lambda r: f"composed:imbalance={r.randint(1, 2)}",
    lambda r: f"gals-ring:rates={r.choice(('1+1/2', '1+2/3'))}",
    lambda r: f"gals-chain:rates={r.choice(('1+1/2', '1+1/2+1/3'))}",
    lambda r: "tree:depth=2",
    lambda r: f"dag:shells={r.randint(4, 6)}",
    lambda r: f"loopy:shells={r.randint(3, 5)}",
)
#: ``liveness`` ignores ``--seed``, so it only gets deterministic
#: families: the first eight above, whose state spaces stay far below
#: the default ``--max-states`` (``tree`` explores ~10k states).
_LIVENESS_FAMILIES = 8


def _analysis(rng: random.Random, index: int, pseed: int,
              work: str, small: bool) -> Dict:
    command = ("analyze", "deadlock", "liveness")[index % 3]
    families = (_LIVENESS_FAMILIES if command == "liveness"
                else len(_ANALYSIS_TOPOLOGIES))
    topology = _ANALYSIS_TOPOLOGIES[(index // 3) % families](rng)
    variant = rng.choice(("casu", "casu", "carloni"))
    argv = [command, topology, "--variant", variant, "--seed", str(pseed)]
    exits = (0,)
    if command == "deadlock":
        argv += ["--ledger", os.path.join(work, "ledger.jsonl")]
        exits = (0, 1)
    elif command == "liveness":
        exits = (0, 1)
    return {"argv": argv, "output": None, "exits": exits}


_OFFLINE_BUILDERS = {"lid-campaign": _lid_campaign,
                     "skeleton-campaign": _skeleton_campaign,
                     "analysis": _analysis}


def offline_manifests(workload: str, seed: int,
                      work: str) -> Iterator[Dict]:
    """Endless stream of measured manifests for an offline workload.

    A manifest is ``{"argv", "output", "exits"}``: the ``repro-lid``
    arguments, the report file it writes (``None``: stdout) and the
    exit codes that are verdicts rather than failures.
    """
    build = _OFFLINE_BUILDERS[workload]
    index = 0
    while True:
        yield build(_rng(workload, seed, index), index,
                    program_seed(seed, index), work, False)
        index += 1


def offline_warmups(workload: str, work: str) -> List[Dict]:
    """One small warm-up manifest of each kind the workload runs."""
    build = _OFFLINE_BUILDERS[workload]
    kinds = {"lid-campaign": 1, "skeleton-campaign": 3, "analysis": 3}
    return [build(_rng(workload, -1, k), k, WARMUP_SEED + k, work, True)
            for k in range(kinds[workload])]


def offline_checks(workload: str, seed: int, work: str,
                   count: int = 5) -> List[Dict]:
    """Small manifests for the cross-path output checks."""
    build = _OFFLINE_BUILDERS[workload]
    return [build(_rng(workload, seed, HOT_OFFSET + k), k,
                  program_seed(seed, HOT_OFFSET + 500 + k), work, True)
            for k in range(count)]


# -- serve-mix ----------------------------------------------------------

#: One block of the serve-mix schedule; a ``pair`` is two identical
#: requests due at the same instant (coalescing), ``other`` rotates
#: through a cold skeleton/GALS campaign, a deadlock check and a
#: series.  Cache hits make about four fifths of the requests, so the
#: median latency sits inside the hits; cold token-level campaigns
#: (and the coalesced pairs that wait on one) make about a sixth, so
#: the 90th percentile sits inside that class, not on a class edge.
SERVE_BLOCK = ["hot"] * 24 + ["cold-lid"] * 3 + ["pair", "other"]
_OTHER = ("cold-skeleton", "deadlock", "series")

_SMOKE_TOPOLOGIES = ("figure1", "figure2", "figure2:relays=2", "ring",
                     "pipeline:stages=3", "reconvergent")
#: Cold campaigns use the topologies whose smoke campaigns cost about
#: the same (30-45 ms here), so the 90th percentile does not sit on
#: the edge between a cheap and a dear family.
_COLD_TOPOLOGIES = ("figure1", "pipeline:stages=3", "reconvergent")
_SERIES = ("loop", "imbalance", "transient", "backpressure")


def _smoke_campaign(rng: random.Random, pseed: int,
                    topologies=_SMOKE_TOPOLOGIES) -> Dict:
    return {"kind": "campaign",
            "topology": topologies[pseed % len(topologies)],
            "seed": pseed, "smoke": True,
            "faults": rng.choice(("stop,void", "stop,void,payload")),
            "format": rng.choice(("json", "table"))}


def _skeleton_request(rng: random.Random, pseed: int) -> Dict:
    if rng.random() < 0.5:
        topology = (f"{rng.choice(('gals-ring', 'gals-chain'))}:"
                    f"rates={rng.choice(('1+1/2', '1+2/3'))}")
        faults = "stop,void,cdc"
    else:
        topology, faults = rng.choice(_SMOKE_TOPOLOGIES), "stop,void"
    return {"kind": "campaign", "engine": "skeleton", "topology": topology,
            "seed": pseed, "faults": faults, "cycles": 200, "samples": 32,
            "format": "json"}


def hot_set(seed: int) -> List[Dict]:
    return [_smoke_campaign(_rng("serve-hot", seed, k),
                            program_seed(seed, HOT_OFFSET + k))
            for k in range(12)]


def serve_requests(seed: int) -> Iterator[List[Dict]]:
    """Endless stream of request groups (one body, or a same-instant
    pair of identical bodies), stratified in blocks of ``SERVE_BLOCK``."""
    hot = hot_set(seed)
    index = 0
    block = 0
    while True:
        order = list(SERVE_BLOCK)
        random.Random(f"serve-order:{seed}:{block}").shuffle(order)
        for label in order:
            if label == "other":
                label = _OTHER[block % len(_OTHER)]
            rng = _rng("serve-mix", seed, index)
            pseed = program_seed(seed, index)
            index += 1
            if label == "hot":
                yield [rng.choice(hot)]
            elif label == "cold-lid":
                yield [_smoke_campaign(rng, pseed, _COLD_TOPOLOGIES)]
            elif label == "cold-skeleton":
                yield [_skeleton_request(rng, pseed)]
            elif label == "pair":
                body = _smoke_campaign(rng, pseed, _COLD_TOPOLOGIES)
                yield [body, body]
            elif label == "deadlock":
                yield [{"kind": "deadlock", "seed": pseed,
                        "topology": rng.choice(("dag:shells=5",
                                                "loopy:shells=4"))}]
            else:
                yield [{"kind": "series", "which": rng.choice(_SERIES)}]
        block += 1


def serve_warmups() -> List[Dict]:
    """One request of each kind the mix sends, on warm-up seeds."""
    rng = _rng("serve-warmup", 0, 0)
    return [_smoke_campaign(rng, WARMUP_SEED),
            _skeleton_request(rng, WARMUP_SEED + 1),
            {"kind": "deadlock", "topology": "dag:shells=5",
             "seed": WARMUP_SEED + 2},
            {"kind": "series", "which": "stop-activity"}]
