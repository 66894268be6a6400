"""Content-addressed result store: the service's persistent cache tier.

Entries are keyed by :func:`repro.api.canonical_request_key` — the SHA-256
of the canonical serialized request — and hold the canonical response
bytes (:func:`repro.service.wire.canonical_response_bytes`).  The store
generalizes the PR-4 in-process ``execute_map``/routing caches into a tier
that survives the process and is shared by every worker thread:

* **Schema-version namespacing.**  Entries live under
  ``<root>/v<SCHEMA_VERSION>/<key[:2]>/<key>.json``; bumping the payload
  schema changes both the namespace directory *and* the key itself (the
  blob embeds the version), so stale-format entries can never be served.
* **Atomic writes.**  Every entry is written to a temporary file in the
  destination directory and published with ``os.replace``
  (:func:`replace_file`, which the job journal's compaction shares) —
  concurrent writers of one key race harmlessly to an identical final
  state and a reader can never observe a half-written entry.
* **Corruption tolerance.**  A truncated or garbage entry (killed writer
  on a non-atomic filesystem, disk fault) fails JSON validation on read,
  is unlinked best-effort, and reads as a miss — the request recomputes
  and repairs the entry instead of crashing the service.
* **In-flight dedup.**  The first caller to :meth:`claim` a cold key owns
  its computation; concurrent claimers of the same key :meth:`wait` and
  receive the owner's exact bytes.  100 identical concurrent submissions
  execute once and all 100 read byte-identical bodies.

* **Bounded disk.**  With ``max_bytes`` set, the store is an LRU: every
  ``put`` that pushes the byte total over the cap evicts least-recently-
  used entries until it fits again (reads refresh recency, persisted via
  the entry's mtime so the ordering survives restarts).  With ``ttl``
  set, an entry idle longer than ``ttl`` seconds reads as a miss and is
  unlinked.  Keys with an in-flight computation are never evicted — an
  owner publishing or a waiter about to read can't have the entry pulled
  out from under it — so the total may transiently exceed the cap by the
  in-flight entries, never by cold ones.

Error results (``error-response`` payloads) are *published* to waiters —
concurrent duplicates of a failing request all see the same typed failure
— but never *persisted*: a transient timeout or worker death must not
poison the cache for future submissions.  A result the store cannot write
(read-only root, full disk: :class:`~repro.errors.StoreError`) is published
the same way and counted as ``write_errors``.

Deadlock discipline for direct ``claim``/``publish`` users (the job
runner): never ``wait`` on a key before publishing or abandoning every key
you own, and claim each distinct key at most once per job.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable

from repro.api.specs import SCHEMA_VERSION
from repro.errors import StoreError


def replace_file(path: Path, data: bytes, fsync: bool = False) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over
    ``path``: a reader sees the old file or the new one, never a torn one.

    Raises:
        OSError: when a step fails; the temp file is removed first.
    """
    tmp = path.parent / f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


class _InFlight:
    """One in-progress computation: waiters block on ``event``."""

    __slots__ = ("event", "data")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.data: bytes | None = None


class ResultStore:
    """Thread-safe content-addressed result store (disk- or memory-backed).

    Args:
        root: directory for the persistent tier; ``None`` keeps entries in
            memory only (tests, throwaway servers) with identical
            semantics.
        schema_version: payload schema the namespace is bound to; defaults
            to the library's :data:`~repro.api.SCHEMA_VERSION`.
        max_bytes: LRU size cap over the entry bytes; None = unbounded.
        ttl: idle time-to-live in seconds — an entry neither written nor
            read for this long expires (reads as a miss, file unlinked);
            None = entries never expire.
        clock: time source for TTL/LRU stamps (tests inject a fake).
    """

    def __init__(
        self,
        root: str | Path | None = None,
        schema_version: int = SCHEMA_VERSION,
        *,
        max_bytes: int | None = None,
        ttl: float | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._root = None if root is None else Path(root)
        self._schema = schema_version
        self._max_bytes = max_bytes
        self._ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._inflight: dict[str, _InFlight] = {}
        self._memory: dict[str, bytes] = {}
        #: key -> [size, last-touch stamp], in LRU order (oldest first).
        self._index: "OrderedDict[str, list]" = OrderedDict()
        self._bytes = 0
        self._counts = {
            "executed": 0,
            "stored": 0,
            "hits": 0,
            "inflight_waits": 0,
            "corrupt_dropped": 0,
            "errors_uncached": 0,
            "evicted": 0,
            "ttl_expired": 0,
            "write_errors": 0,
        }
        if self._root is not None and (max_bytes is not None or ttl is not None):
            self._scan()

    # -- eviction index -------------------------------------------------
    def _scan(self) -> None:
        """Rebuild the LRU index from the namespace dir (startup only).

        Entry mtimes — refreshed on every read — seed the recency order,
        so LRU decisions survive a restart.
        """
        namespace = self.namespace
        assert namespace is not None
        found: list[tuple[float, str, int]] = []
        try:
            shards = list(namespace.iterdir())
        except OSError:
            return
        for shard in shards:
            try:
                entries = list(shard.iterdir())
            except OSError:
                continue
            for entry in entries:
                if entry.suffix != ".json" or entry.name.startswith("."):
                    continue
                try:
                    stat = entry.stat()
                except OSError:
                    continue
                found.append((stat.st_mtime, entry.stem, stat.st_size))
        with self._lock:
            for stamp, key, size in sorted(found):
                self._index[key] = [size, stamp]
                self._bytes += size

    def _tracking(self) -> bool:
        return self._max_bytes is not None or self._ttl is not None

    def _index_put(self, key: str, size: int) -> None:
        """Record a write: newest recency, then evict LRU over the cap."""
        if not self._tracking():
            return
        with self._lock:
            old = self._index.pop(key, None)
            if old is not None:
                self._bytes -= old[0]
            self._index[key] = [size, self._clock()]
            self._bytes += size
            if self._max_bytes is None:
                return
            while self._bytes > self._max_bytes:
                victim = next(
                    (k for k in self._index if k not in self._inflight and k != key),
                    None,
                )
                if victim is None:
                    break  # everything left is in flight; transient overage
                self._drop_locked(victim, "evicted")

    def _index_forget(self, key: str) -> None:
        if not self._tracking():
            return
        with self._lock:
            entry = self._index.pop(key, None)
            if entry is not None:
                self._bytes -= entry[0]

    def _drop_locked(self, key: str, counter: str) -> None:
        """Remove one entry (both tiers) under ``self._lock``."""
        entry = self._index.pop(key, None)
        if entry is not None:
            self._bytes -= entry[0]
        self._memory.pop(key, None)
        if self._root is not None:
            try:
                self.path_for(key).unlink()
            except OSError:
                pass
        self._counts[counter] += 1

    def _check_fresh(self, key: str, size: int) -> bool:
        """TTL check + LRU touch for a read hit; False = expired."""
        if not self._tracking():
            return True
        now = self._clock()
        with self._lock:
            entry = self._index.get(key)
            stamp = entry[1] if entry is not None else now
            if self._ttl is not None and now - stamp > self._ttl:
                self._drop_locked(key, "ttl_expired")
                return False
            if entry is None:
                self._index[key] = [size, now]
                self._bytes += size
            else:
                entry[1] = now
                self._index.move_to_end(key)
        if self._root is not None:
            try:
                os.utime(self.path_for(key))
            except OSError:
                pass
        return True

    # -- paths ----------------------------------------------------------
    @property
    def namespace(self) -> Path | None:
        """Schema-versioned root directory (``None`` for memory stores)."""
        if self._root is None:
            return None
        return self._root / f"v{self._schema}"

    def path_for(self, key: str) -> Path:
        """On-disk location of a key's entry (disk-backed stores only)."""
        namespace = self.namespace
        if namespace is None:
            raise ValueError("memory-backed store has no entry paths")
        return namespace / key[:2] / f"{key}.json"

    # -- validation -----------------------------------------------------
    @staticmethod
    def _valid(data: bytes) -> bool:
        """A well-formed entry: one JSON object carrying a payload kind."""
        try:
            payload = json.loads(data)
        except (ValueError, UnicodeDecodeError):
            return False
        return isinstance(payload, dict) and "kind" in payload

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[counter] += amount

    def _read(self, key: str) -> bytes | None:
        """Raw entry bytes, or None for a miss, corrupt entry, or expiry."""
        if self._root is None:
            with self._lock:
                data = self._memory.get(key)
            if data is None:
                return None
            return data if self._check_fresh(key, len(data)) else None
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        if not self._valid(data):
            try:
                path.unlink()
            except OSError:
                pass
            self._index_forget(key)
            self._bump("corrupt_dropped")
            return None
        return data if self._check_fresh(key, len(data)) else None

    # -- basic tier -----------------------------------------------------
    def get(self, key: str) -> bytes | None:
        """Entry bytes for ``key``, or None (misses and corrupt entries)."""
        data = self._read(key)
        if data is not None:
            self._bump("hits")
        return data

    def put(self, key: str, data: bytes) -> None:
        """Persist an entry atomically (temp file + ``os.replace``).

        Raises:
            StoreError: when the entry cannot be written; the temp file is
                removed first.
        """
        if self._root is None:
            with self._lock:
                self._memory[key] = data
                self._counts["stored"] += 1
            self._index_put(key, len(data))
            return
        path = self.path_for(key)
        try:
            replace_file(path, data)
        except OSError as error:
            raise StoreError(
                f"cannot write {path}: [Errno {error.errno}] {error.strerror}"
            ) from error
        self._bump("stored")
        self._index_put(key, len(data))

    # -- in-flight dedup ------------------------------------------------
    def claim(self, key: str) -> tuple[str, bytes | None]:
        """Resolve a key against both tiers, claiming it when cold.

        Returns one of:

        * ``("hit", data)`` — the entry exists; serve it.
        * ``("owned", None)`` — the caller now owns computing this key and
          must eventually :meth:`publish` or :meth:`abandon` it.
        * ``("wait", None)`` — another caller owns it; :meth:`wait`.
        """
        with self._lock:
            if key in self._inflight:
                self._counts["inflight_waits"] += 1
                return "wait", None
        data = self.get(key)
        if data is not None:
            return "hit", data
        with self._lock:
            # Re-check: someone may have claimed between the read and here.
            if key in self._inflight:
                self._counts["inflight_waits"] += 1
                return "wait", None
            self._inflight[key] = _InFlight()
        # ... or run a whole claim -> compute -> publish cycle in that gap:
        # look again as the owner, so a published key never executes twice.
        data = self.get(key)
        if data is not None:
            self.abandon(key)
            return "hit", data
        return "owned", None

    def publish(self, key: str, data: bytes, cache: bool = True) -> None:
        """Complete an owned key: hand ``data`` to waiters, persist if asked.

        ``cache=False`` is the error path — waiters still receive the exact
        bytes (concurrent duplicates stay byte-identical), but nothing is
        persisted, so the next submission recomputes.  A write that fails
        (:class:`StoreError`) degrades to the same: the bytes still reach
        every waiter, and ``write_errors`` counts the loss.
        """
        if cache:
            try:
                self.put(key, data)
            except StoreError:
                self._bump("write_errors")
        else:
            self._bump("errors_uncached")
        self._bump("executed")
        with self._lock:
            entry = self._inflight.pop(key, None)
        if entry is not None:
            entry.data = data
            entry.event.set()

    def abandon(self, key: str) -> None:
        """Release an owned key without a result; waiters must recompute."""
        with self._lock:
            entry = self._inflight.pop(key, None)
        if entry is not None:
            entry.event.set()

    def wait(self, key: str, timeout: float | None = None) -> bytes | None:
        """Block until the in-flight computation of ``key`` completes.

        Returns the published bytes, the stored entry when the owner
        already finished, or None when the owner abandoned (or the wait
        timed out) — the caller then computes for itself.
        """
        with self._lock:
            entry = self._inflight.get(key)
        if entry is None:
            return self._read(key)
        if not entry.event.wait(timeout):
            return None
        if entry.data is not None:
            return entry.data
        return self._read(key)

    def get_or_compute(
        self, key: str, compute: Callable[[], tuple[bytes, bool]]
    ) -> tuple[bytes, str]:
        """The full dedup protocol for single-key callers.

        ``compute`` returns ``(data, cacheable)``.  The result is the entry
        bytes plus their origin: ``"hit"`` (store), ``"inflight"`` (another
        caller's computation) or ``"computed"`` (this call executed it).
        """
        while True:
            state, data = self.claim(key)
            if state == "hit":
                assert data is not None
                return data, "hit"
            if state == "owned":
                try:
                    data, cacheable = compute()
                except BaseException:
                    self.abandon(key)
                    raise
                self.publish(key, data, cache=cacheable)
                return data, "computed"
            data = self.wait(key)
            if data is not None:
                return data, "inflight"
            # Owner abandoned (crash) or served an uncached error that is
            # already gone — loop and claim it ourselves.

    def stats(self) -> dict[str, int]:
        """Counter snapshot (served via ``GET /v1/health``)."""
        with self._lock:
            snapshot = dict(self._counts)
            snapshot["inflight"] = len(self._inflight)
            if self._tracking():
                snapshot["bytes"] = self._bytes
                snapshot["entries"] = len(self._index)
        return snapshot
