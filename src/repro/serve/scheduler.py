"""Cache-first, coalescing work scheduler for the campaign service.

Every request flows through the same funnel:

1. **span** — the manifest's deterministic pre-run identity (design
   fingerprint x canonical params) is computed off-loop; fingerprints
   are memoized per ``(topology, seed)`` so repeat manifests skip the
   graph build entirely.
2. **cache** — the shared :class:`~repro.exec.ResultCache` is consulted
   with a response-level key; a warm request never touches the worker
   pool (this is what makes steady-state throughput an order of
   magnitude above cold).
3. **admission** — would-be *leaders* (requests that add new work) are
   bounced with 503 once ``queue_depth`` flights are outstanding;
   followers always pass, they add no work.
4. **single flight** — concurrent identical requests collapse onto one
   execution via :class:`AsyncSingleFlight`; exactly one golden
   simulation runs no matter how many clients ask.
5. **execute** — the leader ships :func:`execute_manifest` to a
   persistent worker pool (processes by default; threads for streamed
   runs, whose :class:`~repro.obs.ProgressReporter` callback cannot
   cross a process boundary), then publishes the outcome: response
   cache write + ledger append, both off-loop.

Ledger appends happen only for *executed* runs — a response-cache hit
replays a run whose content-addressed record was already appended, so
replaying the append would only duplicate the line.
"""

from __future__ import annotations

import asyncio
import functools
import signal
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from .coalesce import AsyncSingleFlight
from .dispatch import ServeOutcome, execute_manifest, manifest_fingerprint
from .manifest import Manifest

#: Default bound on outstanding (queued + executing) leader flights.
DEFAULT_QUEUE_DEPTH = 8


def _default_signals() -> None:
    """Pool worker start-up: a forked worker inherits the server loop's
    SIGTERM handler and wakeup fd; restore the default, so a worker
    signalled on its own exits and never wakes the server's loop."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


class ServeRejected(Exception):
    """Backpressure: the request was refused, not failed.

    *status* is the HTTP code to answer with (429 rate-limited,
    503 queue full); *retry_after* seconds, when set, becomes a
    ``Retry-After`` header.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ServeStats:
    """Server-wide counters surfaced by ``GET /v1/stats``."""

    __slots__ = ("requests", "hits", "coalesced", "executed",
                 "errors", "rejected_rate", "rejected_queue", "streamed")

    def __init__(self) -> None:
        self.requests = 0
        self.hits = 0
        self.coalesced = 0
        self.executed = 0
        self.errors = 0
        self.rejected_rate = 0
        self.rejected_queue = 0
        self.streamed = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class CampaignScheduler:
    """Owns the worker pool, the shared cache and the flight table."""

    def __init__(
        self,
        *,
        jobs: int = 1,
        mode: str = "process",
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        use_cache: bool = True,
        cache_dir: Optional[str] = None,
        ledger: Optional[str] = None,
    ) -> None:
        if mode not in ("process", "thread"):
            raise ValueError(f"scheduler mode must be process|thread, "
                             f"got {mode!r}")
        self.jobs = max(int(jobs), 1)
        self.mode = mode
        self.queue_depth = max(int(queue_depth), 1)
        self.use_cache = bool(use_cache)
        self.cache_dir = cache_dir
        self.ledger = ledger
        self.stats = ServeStats()
        self._flight = AsyncSingleFlight()
        self._pool: Any = None
        self._aux: Optional[ThreadPoolExecutor] = None
        self._outstanding = 0
        #: (topology, seed) -> design fingerprint memo (parent side).
        self._fingerprints: Dict[Tuple[str, int], Optional[str]] = {}
        from ..exec import ResultCache

        self.cache = (ResultCache.disk(cache_dir) if self.use_cache
                      else None)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._pool is not None:
            return
        if self.mode == "process":
            import multiprocessing

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_default_signals)
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs,
                thread_name_prefix="serve-worker")
        # Off-loop lane for span computation, cache IO, ledger appends,
        # and thread-mode streamed runs; sized past jobs so streamed
        # executions cannot starve the bookkeeping.
        self._aux = ThreadPoolExecutor(
            max_workers=self.jobs + 4, thread_name_prefix="serve-aux")

    def close(self) -> None:
        """Cancel queued work and stop the pools.  A process pool is
        joined: its workers finish the run in hand and exit, so none
        outlives the scheduler."""
        if self._pool is not None:
            self._pool.shutdown(wait=self.mode == "process",
                                cancel_futures=True)
            self._pool = None
        if self._aux is not None:
            self._aux.shutdown(wait=False, cancel_futures=True)
            self._aux = None

    @property
    def outstanding(self) -> int:
        """Leader flights currently queued or executing."""
        return self._outstanding

    # -- identity ------------------------------------------------------

    def _span(self, manifest: Manifest) -> str:
        """Span id (memoized fingerprint); runs on the aux executor."""
        if manifest.kind == "series":
            return manifest.span(None)
        memo_key = (manifest.topology, manifest.seed)
        if memo_key not in self._fingerprints:
            self._fingerprints[memo_key] = manifest_fingerprint(manifest)
        return manifest.span(self._fingerprints[memo_key])

    @staticmethod
    def response_key(manifest: Manifest, span: str) -> str:
        """Cache/flight key: span plus anything that changes the bytes
        without changing the run identity (the render format)."""
        if manifest.kind == "campaign":
            return f"{span}:{manifest.format}"
        return span

    # -- the funnel ----------------------------------------------------

    async def submit(
        self,
        manifest: Manifest,
        progress_cb: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Tuple[ServeOutcome, str]:
        """Serve one manifest; returns ``(outcome, source)`` with
        *source* one of ``hit`` / ``miss`` / ``coalesced``.

        Raises :class:`ServeRejected` for backpressure and lets
        manifest/dispatch errors propagate to the HTTP layer (400).
        """
        if self._pool is None:
            self.start()
        loop = asyncio.get_running_loop()
        self.stats.requests += 1
        span = await loop.run_in_executor(self._aux, self._span, manifest)
        key = self.response_key(manifest, span)

        if self.cache is not None and progress_cb is None:
            cached = await loop.run_in_executor(
                self._aux, self.cache.get, self.cache.key("serve", key))
            if cached is not None:
                self.stats.hits += 1
                return ServeOutcome.from_cache_payload(cached), "hit"

        if (not self._flight.leading(key)
                and self._outstanding >= self.queue_depth):
            self.stats.rejected_queue += 1
            raise ServeRejected(
                503, f"queue full ({self._outstanding} flights "
                     f"outstanding, depth {self.queue_depth})",
                retry_after=1.0)

        outcome, leader = await self._flight.run(
            key, functools.partial(self._execute, manifest, progress_cb))
        if leader:
            self.stats.executed += 1
        else:
            self.stats.coalesced += 1
            if self.cache is not None:
                self.cache.stats.coalesced += 1
        return outcome, ("miss" if leader else "coalesced")

    async def _execute(
        self,
        manifest: Manifest,
        progress_cb: Optional[Callable[[Dict[str, Any]], None]],
    ) -> ServeOutcome:
        """Leader path: run on the pool, then publish off-loop."""
        loop = asyncio.get_running_loop()
        self._outstanding += 1
        try:
            if progress_cb is not None or self.mode == "thread":
                self.stats.streamed += progress_cb is not None
                outcome = await loop.run_in_executor(
                    self._aux,
                    functools.partial(self._run_streamed, manifest,
                                      progress_cb, loop))
            else:
                outcome = await loop.run_in_executor(
                    self._pool,
                    functools.partial(execute_manifest,
                                      manifest.to_dict(),
                                      use_cache=self.use_cache,
                                      cache_dir=self.cache_dir))
        except BaseException:
            self.stats.errors += 1
            raise
        finally:
            self._outstanding -= 1
        await loop.run_in_executor(self._aux, self._publish,
                                   manifest, outcome)
        return outcome

    def _run_streamed(
        self,
        manifest: Manifest,
        progress_cb: Optional[Callable[[Dict[str, Any]], None]],
        loop: asyncio.AbstractEventLoop,
    ) -> ServeOutcome:
        """Thread-mode execution with a live ProgressReporter bridge.

        The reporter's ``on_event`` fires on the worker thread with the
        reporter lock held, so it only trampolines the dict onto the
        event loop; the HTTP layer consumes it there.
        """
        progress = None
        if progress_cb is not None and manifest.kind == "campaign":
            import io

            from ..obs import ProgressReporter

            progress = ProgressReporter(
                0, label="inject", out=io.StringIO(),
                on_event=lambda fields: loop.call_soon_threadsafe(
                    progress_cb, fields))
        return execute_manifest(manifest, use_cache=self.use_cache,
                                cache_dir=self.cache_dir,
                                progress=progress)

    def _publish(self, manifest: Manifest, outcome: ServeOutcome) -> None:
        """Response-cache write + ledger append (aux thread)."""
        if self.cache is not None:
            key = self.response_key(manifest, outcome.span)
            self.cache.put(self.cache.key("serve", key),
                           outcome.cache_payload())
            if outcome.cache:
                # Fold the worker's golden-run counters into the shared
                # stats so /v1/stats shows end-to-end cache behavior.
                for name in ("hits", "misses", "evictions"):
                    setattr(self.cache.stats, name,
                            getattr(self.cache.stats, name)
                            + outcome.cache.get(name, 0))
        if self.ledger is not None and outcome.record is not None:
            from ..obs import append_record

            append_record(self.ledger, outcome.record)

    def stats_payload(self) -> Dict[str, Any]:
        """The ``GET /v1/stats`` body."""
        payload: Dict[str, Any] = {
            "schema": "repro-lid-serve-stats/v1",
            "serve": self.stats.to_dict(),
            "jobs": self.jobs,
            "mode": self.mode,
            "queue_depth": self.queue_depth,
            "outstanding": self._outstanding,
            "inflight_keys": self._flight.inflight(),
        }
        if self.cache is not None:
            payload["cache"] = self.cache.stats.to_dict()
        if self.ledger is not None:
            payload["ledger"] = self.ledger
        return payload
