"""Structural lint for LID systems.

Two rules from the paper are enforced here:

1. **Relay station between shells.**  The simplified shell does not save
   incoming stop signals, so *"we need to add at least one half or one
   full relay station between two shells"*.  A channel that directly
   connects two shells violates the minimum-memory requirement and is
   rejected.

2. **No combinational stop cycles.**  Shells and half relay stations
   propagate the stop combinationally (downstream stop in, upstream stop
   out within the same cycle); only full relay stations register it.  A
   directed cycle of the system graph containing no full relay station
   would therefore close a combinational loop on the stop network — the
   structural reason a loop needs at least one full relay station.  The
   lint walks the backward stop-propagation graph and rejects cycles.
   The same walk yields the system's *settle order*: the reverse of its
   post-order lists every block before the blocks whose stops it drives,
   so the kernel settles a legal system in one pass (see
   :func:`settle_order`).

Each block declares which of its input stops it drives combinationally
(``combinational_stop_inputs()``); both rules read that declaration.
Both are raised as exceptions so that a system that elaborates cleanly
is correct by construction with respect to the paper's implementation
rules; experiments that deliberately explore illegal structures can run
``finalize(strict=False)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import CombinationalLoopError, StructuralError
from ..kernel.component import Component
from .relay import HalfRelayStation, RelayStation


def lint_system(system) -> None:
    """Run all structural checks; raises on the first violation."""
    check_shell_to_shell(system)
    check_combinational_stop_cycles(system)


def check_shell_to_shell(system) -> None:
    """Reject channels that connect two shells with no relay station.

    Queued shells register their own stop (the memory element lives in
    their input FIFO), so a channel *into* a queued shell is exempt —
    that is precisely the design alternative they exist to express.
    """
    shell_names = set(system.shells)
    for chan in system.channels:
        if chan.producer in shell_names and chan.consumer in shell_names:
            consumer = system.shells[chan.consumer]
            if chan not in consumer.combinational_stop_inputs():
                continue
            raise StructuralError(
                f"channel {chan.name!r} connects shells "
                f"{chan.producer!r} -> {chan.consumer!r} directly; the "
                f"simplified shell does not register stops, so at least "
                f"one (half or full) relay station is required between "
                f"two shells (paper, §1)"
            )


def _stop_edges(system) -> Dict[str, List[str]]:
    """Backward stop-propagation edges between blocks.

    The nodes are the shells and relay stations that drive some input
    stop combinationally.  An edge ``a -> b`` means: a stop asserted
    *to* block ``a`` appears, within the same cycle, on an input
    channel of ``a`` whose producer ``b`` is such a node too.  Blocks
    that register their stop output (full relay stations, registered
    half stations, queued shells) are no nodes: they break the chain.
    """
    inputs = {}
    for group in (system.shells, system.relays):
        for name, block in group.items():
            chans = block.combinational_stop_inputs()
            if chans:
                inputs[name] = chans
    return {name: [chan.producer for chan in chans
                   if chan is not None and chan.producer in inputs]
            for name, chans in inputs.items()}


def _walk(edges: Dict[str, List[str]]
          ) -> Tuple[List[str], Optional[List[str]]]:
    """Depth-first walk of the stop graph: the nodes in post-order
    and ``None``, or, stopping at the first back edge, the cycle it
    closes as a node path that starts and ends at the same node.

    Iterative, so a long chain of half stations cannot exhaust the
    interpreter's recursion limit.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    post: List[str] = []
    for root in edges:
        if color.get(root, WHITE) != WHITE:
            continue
        color[root] = GREY
        path = [root]
        pending = [iter(edges[root])]
        while pending:
            for nxt in pending[-1]:
                state = color.get(nxt, WHITE)
                if state == GREY:
                    return post, path[path.index(nxt):] + [nxt]
                if state == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    pending.append(iter(edges[nxt]))
                    break
            else:
                pending.pop()
                node = path.pop()
                color[node] = BLACK
                post.append(node)
    return post, None


def check_combinational_stop_cycles(system) -> None:
    """Reject cycles in the combinational stop-propagation graph."""
    settle_order(system, strict=True)


def settle_order(system,
                 strict: bool = True) -> Optional[List[Component]]:
    """The blocks whose ``settle`` drives a stop, in settle order.

    Every block comes before the blocks whose stops it drives, which
    is the reverse post-order of rule 2's walk.  A cycle raises
    :class:`~repro.errors.CombinationalLoopError` when *strict*, and
    otherwise returns ``None``: such a system settles by the kernel's
    fixpoint.
    """
    post, cycle = _walk(_stop_edges(system))
    if cycle is None:
        blocks = {**system.shells, **system.relays}
        return [blocks[name] for name in reversed(post)]
    if not strict:
        return None
    raise CombinationalLoopError(
        "combinational stop cycle through "
        + " -> ".join(cycle)
        + "; every loop needs at least one full relay station "
        "(registered stop) to break the chain"
    )


def relay_census(system) -> Tuple[int, int]:
    """Return ``(full, half)`` relay-station counts — handy in reports."""
    full = sum(1 for r in system.relays.values() if isinstance(r, RelayStation))
    half = sum(
        1 for r in system.relays.values() if isinstance(r, HalfRelayStation)
    )
    return full, half
