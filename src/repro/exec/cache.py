"""Content-addressed result cache: golden runs, periodicity verdicts.

Every ``repro-lid inject`` invocation used to re-simulate the
fault-free golden run from scratch, and every ``analyze``/``deadlock``
re-ran the skeleton to periodicity.  Those results are pure functions
of ``(graph, variant, cycles, seed)``, so they are cached here,
content-addressed:

* the **graph fingerprint** (:func:`graph_fingerprint`) combines the
  canonical IR structural fingerprint
  (:func:`repro.ir.structural_fingerprint` — nodes, kinds, queue
  depths, edges, relay chains, in sorted canonical order) with the
  *behaviour* of the attached callables — code objects of pearl
  factories and stream factories, and the sampled output bits of every
  sink stop script over the run length.  Editing a stop script or
  swapping a pearl changes the key; renaming a file, reordering
  declarations or re-building the same topology from scratch does not;
* the **key** additionally folds in the cache schema version and the
  git revision of the package, so entries never survive a code change
  that could alter simulation semantics (invalidation is by
  *unreachability*: stale entries are simply never looked up again).

Storage is two-level: an in-process dict, plus an optional on-disk
layer under ``~/.cache/repro-lid/`` (override with
``$REPRO_LID_CACHE_DIR`` or ``directory=``).  Disk writes are atomic —
``mkstemp`` + ``os.replace`` in :func:`atomic_write_bytes`, which the
bench runner's files use too — so readers never see a torn entry.
Reads are poison-tolerant: a truncated or unpicklable file is a
*warning and a miss*, never a crash; the offender is unlinked so it
cannot warn twice.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import os
import pickle
import sys
import tempfile
from typing import Any, Callable, Optional, Tuple

from ..graph.model import SystemGraph

#: Bump to orphan every existing entry (format or semantics change).
#: v2: graph fingerprints switched from ad-hoc structure hashing to the
#: canonical IR structural fingerprint (repro-ir/v1).
CACHE_SCHEMA = "repro-lid-cache/v2"

#: Sentinel distinguishing "cached None" from "not cached".
_MISS = object()


def default_cache_dir() -> str:
    """``$REPRO_LID_CACHE_DIR`` or ``~/.cache/repro-lid``."""
    override = os.environ.get("REPRO_LID_CACHE_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-lid")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write *data* to *path* atomically (mkstemp + ``os.replace``)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _callable_fingerprint(fn: Optional[Callable]) -> str:
    """Stable-ish content hash of a callable's behaviour.

    Functions and lambdas hash their bytecode, constants and closure
    values; classes and builtins hash their qualified name.  This is a
    *cache key* component, not a proof of equality — a collision risk
    this low only ever costs a stale golden run keyed under the same
    git revision, and the revision changes with every commit.
    """
    if fn is None:
        return "none"
    code = getattr(fn, "__code__", None)
    if code is not None:
        closure = getattr(fn, "__closure__", None) or ()
        cells = []
        for cell in closure:
            try:
                cells.append(repr(cell.cell_contents))
            except Exception:
                cells.append("<opaque>")
        return hashlib.sha256(
            code.co_code
            + repr(code.co_consts).encode()
            + repr(cells).encode()
        ).hexdigest()
    return f"{getattr(fn, '__module__', '?')}:" \
           f"{getattr(fn, '__qualname__', repr(fn))}"


def graph_fingerprint(graph: SystemGraph, cycles: int = 256) -> str:
    """sha256 of the graph's structure and attached behaviour.

    Structure comes from the canonical IR fingerprint
    (:func:`repro.ir.structural_fingerprint`): declaration order and
    pickle bytes do not participate, so two independently built
    identical topologies share a key.  Behaviour is layered on top per
    node in sorted-name order: pearl/stream factory code hashes and
    sampled sink stop-script bits.  *cycles* bounds the script
    sampling — callers should pass at least the run length they are
    caching for, so that two scripts differing only beyond the sampled
    horizon cannot share a key for a run that would tell them apart.
    """
    from ..ir import lower

    lowered = lower(graph)
    hasher = hashlib.sha256()
    hasher.update(lowered.fingerprint.encode())
    for node in sorted(lowered.nodes, key=lambda n: n.name):
        hasher.update(f"|node:{node.name}".encode())
        hasher.update(_callable_fingerprint(node.pearl_factory).encode())
        hasher.update(_callable_fingerprint(node.stream_factory).encode())
        if node.stop_script is not None:
            bits = "".join(
                "1" if node.stop_script(c) else "0"
                for c in range(max(1, cycles)))
            hasher.update(f"|script:{bits}".encode())
        else:
            hasher.update(b"|script:none")
    return hasher.hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/eviction counters — surfaced in campaign headers.

    ``coalesced`` counts callers that shared an in-flight computation
    instead of re-running it (the campaign service's request
    coalescing, see :mod:`repro.serve.coalesce`); ``gc_files`` /
    ``gc_bytes`` account for disk entries reclaimed by
    :meth:`ResultCache.gc`.  The newer
    counters appear in :meth:`to_dict` only when nonzero, so reports
    from flows that never coalesce or collect stay byte-stable.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    coalesced: int = 0
    gc_files: int = 0
    gc_bytes: int = 0

    def to_dict(self) -> dict:
        stats = {"hits": self.hits, "misses": self.misses,
                 "evictions": self.evictions}
        if self.coalesced:
            stats["coalesced"] = self.coalesced
        if self.gc_files or self.gc_bytes:
            stats["gc_files"] = self.gc_files
            stats["gc_bytes"] = self.gc_bytes
        return stats


#: Default disk-layer byte budget for :meth:`ResultCache.gc` — generous
#: (a golden-run entry is a few KiB, so this holds hundreds of
#: thousands of runs) but finite: a long-running campaign server keeps
#: appending entries forever and must not fill the disk.  Override
#: with ``$REPRO_LID_CACHE_MAX_BYTES``; ``0`` disables collection.
DEFAULT_CACHE_MAX_BYTES = 2 * 1024 ** 3

#: Run a GC sweep every this many disk writes (plus one at
#: :meth:`ResultCache.disk` construction when a budget is configured).
GC_WRITE_INTERVAL = 64


def cache_max_bytes() -> int:
    """Disk budget: ``$REPRO_LID_CACHE_MAX_BYTES`` or the default.

    A non-positive or malformed value disables GC (returns 0) — an
    operator who sets the variable to ``0`` is explicitly asking for
    the old unbounded behaviour.
    """
    text = os.environ.get("REPRO_LID_CACHE_MAX_BYTES")
    if text is None:
        return DEFAULT_CACHE_MAX_BYTES
    try:
        value = int(text)
    except ValueError:
        print(f"warning: ignoring malformed "
              f"REPRO_LID_CACHE_MAX_BYTES={text!r}", file=sys.stderr)
        return DEFAULT_CACHE_MAX_BYTES
    return max(value, 0)


#: Default memory-layer bound.  Generous — a campaign touches a handful
#: of golden runs and verdicts per topology — but finite, so a
#: long-lived process sweeping thousands of graphs no longer grows its
#: cache without limit.  Disk entries are never evicted: an evicted key
#: with a disk layer is re-promoted on the next ``get``.
DEFAULT_MEMORY_ENTRIES = 4096


class ResultCache:
    """Two-level (memory + optional disk) content-addressed store.

    The memory layer is LRU-bounded to *maxsize* entries (``None`` for
    the old unbounded behaviour); evictions only forget the in-process
    copy — values stored with a disk layer survive and reload on demand.
    """

    def __init__(self, directory: Optional[str] = None,
                 maxsize: Optional[int] = DEFAULT_MEMORY_ENTRIES,
                 max_bytes: Optional[int] = None):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, "
                             f"got {maxsize!r}")
        self.directory = directory
        self.maxsize = maxsize
        self.max_bytes = (cache_max_bytes() if max_bytes is None
                          else max(int(max_bytes), 0))
        self.stats = CacheStats()
        self._memory: "collections.OrderedDict[str, Any]" = \
            collections.OrderedDict()
        self._disk_broken = False
        self._disk_writes = 0

    @classmethod
    def disk(cls, directory: Optional[str] = None,
             maxsize: Optional[int] = DEFAULT_MEMORY_ENTRIES,
             max_bytes: Optional[int] = None) -> "ResultCache":
        """Cache backed by the default (or given) on-disk directory."""
        return cls(directory=directory or default_cache_dir(),
                   maxsize=maxsize, max_bytes=max_bytes)

    @classmethod
    def memory(cls,
               maxsize: Optional[int] = DEFAULT_MEMORY_ENTRIES
               ) -> "ResultCache":
        """In-process cache only (tests, one-shot programs)."""
        return cls(directory=None, maxsize=maxsize)

    def key(self, *parts: Any) -> str:
        """Canonical key: schema + git rev + the caller's parts."""
        from ..bench.runner import git_rev

        text = "|".join([CACHE_SCHEMA, git_rev()]
                        + [str(part) for part in parts])
        return hashlib.sha256(text.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def _remember(self, key: str, value: Any) -> None:
        """Insert into the memory layer, evicting LRU past *maxsize*."""
        self._memory[key] = value
        self._memory.move_to_end(key)
        if self.maxsize is not None:
            while len(self._memory) > self.maxsize:
                self._memory.popitem(last=False)
                self.stats.evictions += 1

    def get(self, key: str) -> Any:
        """Cached value or ``None``; counts a hit or a miss."""
        if key in self._memory:
            self.stats.hits += 1
            self._memory.move_to_end(key)
            return self._memory[key]
        value = _MISS
        if self.directory is not None and not self._disk_broken:
            path = self._path(key)
            try:
                with open(path, "rb") as fh:
                    value = pickle.load(fh)
            except FileNotFoundError:
                pass
            except Exception as exc:
                print(f"warning: dropping poisoned cache entry {path}: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                try:
                    os.unlink(path)
                except OSError:
                    pass
        if value is _MISS:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._remember(key, value)
        return value

    def put(self, key: str, value: Any) -> None:
        """Store under *key*; disk failures degrade to memory-only.

        A value that cannot be pickled (a campaign trunk whose pearls
        hold lambdas) stays in the memory layer only.

        Every :data:`GC_WRITE_INTERVAL`-th disk write triggers a
        :meth:`gc` sweep so a long-running process (the campaign
        server) keeps the disk layer inside its byte budget without any
        external cron.
        """
        self._remember(key, value)
        if self.directory is None or self._disk_broken:
            return
        try:
            data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - e.g. a value holding a lambda
            return  # memory only; the disk layer stays usable
        try:
            atomic_write_bytes(self._path(key), data)
        except Exception as exc:
            self._disk_broken = True
            print(f"warning: cache directory {self.directory!r} is not "
                  f"writable ({exc}); continuing without the disk layer",
                  file=sys.stderr)
            return
        self._disk_writes += 1
        if self.max_bytes and self._disk_writes % GC_WRITE_INTERVAL == 0:
            self.gc()

    def disk_usage(self) -> int:
        """Total bytes of cache entries currently on disk."""
        if self.directory is None:
            return 0
        total = 0
        try:
            with os.scandir(self.directory) as entries:
                for entry in entries:
                    if entry.name.endswith(".pkl") and entry.is_file():
                        try:
                            total += entry.stat().st_size
                        except OSError:
                            pass
        except OSError:
            return 0
        return total

    def gc(self, max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Trim the disk layer to *max_bytes* (default: the configured
        budget), oldest entries first.

        Entries are ranked by mtime — ``atomic_write_bytes`` stamps a
        fresh mtime on every put, so recency of *writing* is the
        eviction order (the memory LRU in front of the disk keeps hot
        reads cheap regardless).  Returns ``(files_removed,
        bytes_freed)`` and accumulates both into :attr:`stats`.
        Concurrent removals (another process collecting the same
        directory) are tolerated: a vanished file is simply not counted.
        """
        budget = self.max_bytes if max_bytes is None else max(
            int(max_bytes), 0)
        if self.directory is None or not budget:
            return (0, 0)
        entries = []
        try:
            with os.scandir(self.directory) as scan:
                for entry in scan:
                    if not entry.name.endswith(".pkl") \
                            or not entry.is_file():
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, stat.st_size,
                                    entry.path))
        except OSError:
            return (0, 0)
        total = sum(size for _mtime, size, _path in entries)
        if total <= budget:
            return (0, 0)
        removed = freed = 0
        for _mtime, size, path in sorted(entries):
            if total <= budget:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
            freed += size
        self.stats.gc_files += removed
        self.stats.gc_bytes += freed
        return (removed, freed)
