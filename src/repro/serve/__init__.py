"""Campaign service: HTTP/JSON front end over the campaign engines.

``repro.serve`` turns the toolkit into a long-lived, cache-first
execution service (``repro-lid serve``): clients POST campaign
manifests; a scheduler funnels each request through the shared
content-addressed :class:`~repro.exec.ResultCache`, collapses
concurrent identical requests onto a single golden run
(:class:`AsyncSingleFlight`), applies token-bucket rate limiting and
bounded-queue backpressure, and shards cold work across a persistent
worker pool.  The offline ``repro-lid inject``/``deadlock``/``series``
commands run the same :func:`execute_manifest`, so served responses are
byte-identical to them (`docs/serving.md` states the exact contract)
and served runs land in the same run ledger with the same
content-addressed ids.

Layering: ``repro.serve`` sits above the engines and ``repro.exec`` /
``repro.obs`` and must never import ``repro.cli`` (enforced by
``tools/check_layering.py``); the CLI imports *this* package.
"""

from .dispatch import (
    DispatchError,
    ServeOutcome,
    execute_manifest,
    manifest_fingerprint,
)
from .manifest import Manifest, ManifestError

#: The service half loads on first use, so the offline CLI commands,
#: which only build and execute manifests, never import asyncio.
_SERVICE = {
    "AsyncSingleFlight": "coalesce",
    "CampaignServer": "app",
    "ServerHandle": "app",
    "run_server": "app",
    "start_in_thread": "app",
    "RateLimiter": "ratelimit",
    "TokenBucket": "ratelimit",
    "DEFAULT_QUEUE_DEPTH": "scheduler",
    "CampaignScheduler": "scheduler",
    "ServeRejected": "scheduler",
    "ServeStats": "scheduler",
}


def __getattr__(name: str):
    if name not in _SERVICE:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_SERVICE[name]}", __name__), name)


__all__ = [
    "AsyncSingleFlight",
    "CampaignScheduler",
    "CampaignServer",
    "DEFAULT_QUEUE_DEPTH",
    "DispatchError",
    "Manifest",
    "ManifestError",
    "RateLimiter",
    "ServeOutcome",
    "ServeRejected",
    "ServeStats",
    "ServerHandle",
    "TokenBucket",
    "execute_manifest",
    "manifest_fingerprint",
    "run_server",
    "start_in_thread",
]
