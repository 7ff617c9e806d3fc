"""In-flight request coalescing for the asyncio service.

:class:`AsyncSingleFlight` is keyed duplicate suppression on the
event loop: the first caller for a key becomes the **leader** and
actually runs the work; every caller that arrives while the leader is
in flight becomes a **follower** and awaits the leader's future instead
of spawning a duplicate execution.  For the
campaign service the key is the run's span id (kind x design
fingerprint x canonical params), so N clients POSTing the identical
manifest concurrently cost exactly one golden simulation.

Single event loop, no locks: the flight table is only touched between
awaits, so membership checks and inserts are atomic by construction.
Followers await through :func:`asyncio.shield` — cancelling one
follower's request must not cancel the shared computation the leader
and the other followers still depend on.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Hashable, Tuple


class AsyncSingleFlight:
    """Keyed duplicate-suppression for coroutines (leader/follower)."""

    def __init__(self) -> None:
        self._flights: Dict[Hashable, "asyncio.Future[Any]"] = {}

    def inflight(self) -> int:
        """Number of keys currently being computed."""
        return len(self._flights)

    def leading(self, key: Hashable) -> bool:
        """True if a leader is already in flight for *key* (a caller
        arriving now would coalesce rather than add work)."""
        return key in self._flights

    async def run(self, key: Hashable,
                  factory: Callable[[], Awaitable[Any]],
                  ) -> Tuple[Any, bool]:
        """Return ``(value, leader)`` for *key*.

        The leader invokes ``factory()`` and publishes its result (or
        exception) to every follower.  The key is retired before the
        future resolves, so a request arriving after completion starts
        a fresh flight — coalescing only ever merges *concurrent*
        work, it is not a cache.
        """
        existing = self._flights.get(key)
        if existing is not None:
            return await asyncio.shield(existing), False
        future: "asyncio.Future[Any]" = (
            asyncio.get_running_loop().create_future())
        # A leader with zero followers never awaits the future; retrieve
        # its exception so set_exception can't warn at GC time.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self._flights[key] = future
        try:
            value = await factory()
        except BaseException as exc:
            self._flights.pop(key, None)
            future.set_exception(exc)
            raise
        else:
            self._flights.pop(key, None)
            future.set_result(value)
            return value, True
