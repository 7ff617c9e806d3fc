"""Textual topology specs: ``name[:key=value,...]`` -> SystemGraph.

The spec grammar the CLI exposes (``repro-lid analyze figure2:relays=3``)
also names graphs in :class:`repro.exec.graphs.GraphRef` payloads, so
parsing lives here in the topology layer — ``repro.exec`` materializes
refs without importing the CLI, and scripts can build graphs from the
same strings the command line accepts.

Examples: ``ring:shells=3,relays=2``, ``reconvergent:long=2+1,short=1``,
``dag:shells=6,half=0.25`` (seeded via the *seed* argument).
``feedback`` is an alias for the paper's Figure 2 loop.
"""

from __future__ import annotations

from typing import Tuple

from ..errors import StructuralError
from .model import SystemGraph
from .topologies import figure1, figure2, pipeline, reconvergent, ring, tree

TOPOLOGY_CHOICES = (
    "figure1", "figure2", "feedback", "ring", "tree", "pipeline",
    "reconvergent", "composed", "self_loop", "butterfly", "dag", "loopy",
    "gals-chain", "gals-ring",
)


def _parse_rates(text: str) -> tuple:
    """``"1+1/2+1/3"`` -> rate strings (``+`` separates; ``,`` is taken
    by the spec grammar's parameter separator)."""
    return tuple(part.strip() for part in text.split("+") if part.strip())


class _Params(dict):
    """A spec's ``key=value`` texts, read as numbers with defaults.

    A value that does not parse raises ``ValueError`` naming the
    parameter and its text, e.g. ``relays='half' is not an integer``.
    """

    def integer(self, key: str, default: int) -> int:
        return self._read(key, default, int, "an integer")

    def number(self, key: str, default: float) -> float:
        return self._read(key, default, float, "a number")

    def integers(self, key: str, default: Tuple[int, ...]):
        """``long=2+1`` -> ``(2, 1)``."""
        return self._read(
            key, default,
            lambda text: tuple(int(part) for part in text.split("+")),
            "a '+'-separated list of integers")

    def _read(self, key, default, convert, expected):
        if key not in self:
            return default
        try:
            return convert(self[key])
        except ValueError:
            raise ValueError(
                f"{key}={self[key]!r} is not {expected}") from None


def parse_topology(spec: str, seed: int = 0) -> SystemGraph:
    """Build the graph a ``name[:key=value,...]`` spec describes.

    *seed* feeds the randomized families (``dag:``/``loopy:``).  Unknown
    names raise ``SystemExit`` with the full choice list — the CLI
    relies on this as its argument diagnostic.  A parameter value that
    is not a number, or that the family's builder rejects (a ring of
    no shells, a clock rate that is not a fraction), raises
    ``ValueError`` with the reason.
    """
    try:
        return _build(spec, seed)
    except StructuralError as exc:
        raise ValueError(str(exc)) from None


def _build(spec: str, seed: int) -> SystemGraph:
    name, _sep, args_text = spec.partition(":")
    params = _Params()
    if args_text:
        for item in args_text.split(","):
            key, _eq, value = item.partition("=")
            params[key.strip()] = value.strip()
    if name == "figure1":
        return figure1()
    if name in ("figure2", "feedback"):
        return figure2(params.integer("relays", 1))
    if name == "ring":
        return ring(params.integer("shells", 2),
                    relays_per_arc=params.integer("relays", 1))
    if name == "tree":
        return tree(params.integer("depth", 3),
                    relays_per_hop=params.integer("relays", 1))
    if name == "pipeline":
        return pipeline(params.integer("stages", 3),
                        relays_per_hop=params.integer("relays", 1))
    if name == "reconvergent":
        return reconvergent(long_relays=params.integers("long", (1, 1)),
                            short_relays=params.integer("short", 1))
    if name == "composed":
        from .topologies import composed

        return composed(
            reconv_imbalance=params.integer("imbalance", 1),
            loop_relays=params.integer("loop_relays", 2))
    if name == "self_loop":
        from .topologies import self_loop

        return self_loop(relays=params.integer("relays", 1))
    if name == "butterfly":
        from .topologies import butterfly_network

        return butterfly_network(
            lanes=params.integer("lanes", 8),
            relays_per_hop=params.integer("relays", 1))
    if name == "dag":
        from .random_gen import random_dag

        return random_dag(
            seed,
            shells=params.integer("shells", 6),
            max_fanin=params.integer("fanin", 2),
            max_relays=params.integer("relays", 3),
            half_probability=params.number("half", 0.0))
    if name == "loopy":
        from .random_gen import random_loopy

        return random_loopy(
            seed,
            shells=params.integer("shells", 5),
            extra_back_edges=params.integer("chords", 1),
            max_relays=params.integer("relays", 2),
            half_probability=params.number("half", 0.0))
    if name == "gals-chain":
        from .topologies import gals_chain

        return gals_chain(
            rates=_parse_rates(params.get("rates", "1+1/2")),
            stages_per_domain=params.integer("stages", 1),
            depth=params.integer("depth", 2),
            relays_per_hop=params.integer("relays", 0))
    if name == "gals-ring":
        from .topologies import gals_ring

        return gals_ring(
            rates=_parse_rates(params.get("rates", "1+1/2")),
            shells_per_domain=params.integer("shells", 1),
            depth=params.integer("depth", 2),
            relays_per_arc=params.integer("relays", 0))
    raise SystemExit(
        f"unknown topology {name!r} (choices: "
        + ", ".join(TOPOLOGY_CHOICES) + ")"
    )
