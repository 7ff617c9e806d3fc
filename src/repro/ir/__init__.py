"""Canonical lowered IR: one graph -> backend construction path.

``repro.ir`` sits between the topology layer (:mod:`repro.graph`) and
every consumer of a topology: lid elaboration, the skeleton engines,
the analysis walkers and the exec cache.
:func:`lower` normalizes a :class:`~repro.graph.model.SystemGraph`
into a frozen :class:`LoweredSystem` — integer-indexed node/edge/
relay/hop tables with relay chains fully expanded, capability flags
and a canonical structural fingerprint — and every backend builds from
those tables instead of re-walking the graph.

Layering: this package imports only ``repro.graph`` / ``repro.errors``
(enforced by ``tools/check_layering.py``); calls that must construct
lid objects go through :mod:`repro._registry`.  See docs/ir.md.
"""

from .lowering import (
    RS_BRIDGE,
    RS_FULL,
    RS_HALF,
    RS_HALF_REG,
    RS_KIND_TAG,
    SHELL,
    SINK,
    SRC,
    STATS,
    IRBridge,
    IRDomain,
    IREdge,
    IRHop,
    IRNode,
    IRRelay,
    LoweredSystem,
    LowerStats,
    firing_schedule,
    lower,
    structural_fingerprint,
)
from .planes import pack_planes, plane_words, unpack_planes
from .passes import (
    Pass,
    PassPipeline,
    PassRecord,
    cure_deadlock_pass,
    desugar_queues_pass,
    equalize_pass,
    insert_relay_pass,
    promote_half_relays_pass,
)

__all__ = [
    "IRBridge",
    "IRDomain",
    "IREdge",
    "IRHop",
    "IRNode",
    "IRRelay",
    "LoweredSystem",
    "LowerStats",
    "Pass",
    "PassPipeline",
    "PassRecord",
    "RS_BRIDGE",
    "RS_FULL",
    "RS_HALF",
    "RS_HALF_REG",
    "RS_KIND_TAG",
    "SHELL",
    "SINK",
    "SRC",
    "STATS",
    "cure_deadlock_pass",
    "desugar_queues_pass",
    "equalize_pass",
    "firing_schedule",
    "insert_relay_pass",
    "lower",
    "pack_planes",
    "plane_words",
    "promote_half_relays_pass",
    "structural_fingerprint",
    "unpack_planes",
]
