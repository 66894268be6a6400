"""The write-ahead job journal: what makes "accepted" a durable promise.

The job registry and admission queue are in-memory — a graceful drain
finishes accepted work, but a hard crash (``kill -9``, OOM kill, power
loss) would silently drop every queued and running job.  The journal
closes that gap: every admitted job is appended here as one fsync'd
record *before* the 202 leaves the server, and completion appends a
tombstone.  On restart, :meth:`JobJournal.recover` returns the accepted
records without a matching tombstone, and the service replays them under
their original job ids — clients polling a pre-crash job id simply see it
complete.  Replay is idempotent by construction: slots are keyed on
:func:`repro.api.canonical_request_key`, so a slot that already published
to the content-addressed store before the crash resolves as a byte-
identical store hit instead of re-executing.

Format: one record per line, ``<checksum> <canonical-json>`` — the
checksum is the first 12 hex chars of the SHA-256 of the JSON text.  A
record is appended with a single ``write`` call, so a crash can only ever
tear the *tail* of the file; recovery drops any line whose checksum or
JSON fails to validate (counted and logged, never fatal) and keeps
parsing, so a torn tail or a flipped bit costs at most that one record.

Durability ladder per record type:

* ``accepted`` — flushed **and** fsync'd before the append returns; this
  is the record the 202 promise rides on.
* ``done`` — flushed, not fsync'd.  Losing a tombstone to a crash merely
  re-runs a finished job on recovery, which the store dedups into hits;
  fsyncing it would double the per-job fsync cost for no correctness win.

The file stays bounded: finished records are compacted away — the journal
is atomically rewritten with only its unfinished ``accepted`` records —
after every :data:`COMPACT_EVERY` completions, after recovery, and on clean
shutdown.  A rewrite the disk refuses removes its temp file, logs a
warning and keeps the uncompacted journal, which still recovers exactly
the unfinished jobs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from collections import OrderedDict
from pathlib import Path

from repro.service.store import replace_file

log = logging.getLogger(__name__)

#: Journal record types.
RECORD_ACCEPTED = "accepted"
RECORD_DONE = "done"

_CHECKSUM_CHARS = 12

#: Finished jobs between two compactions, so a long-running service's
#: journal holds only in-flight work plus a bounded tail of tombstones.
COMPACT_EVERY = 256


class JobJournal:
    """Append-only, checksummed, compacting journal of accepted jobs at
    ``path`` (created on first append)."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._lock = threading.Lock()
        self._file = None
        self._dead = 0
        #: job id -> its ``accepted`` record, for every unfinished job.
        self._pending: "OrderedDict[str, dict]" = OrderedDict()
        self._counts = {
            "accepted": 0,
            "finished": 0,
            "dropped": 0,
            "recovered": 0,
            "compactions": 0,
        }

    @property
    def path(self) -> Path:
        return self._path

    # -- record codec ---------------------------------------------------
    @staticmethod
    def _encode(record: dict) -> bytes:
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return f"{digest[:_CHECKSUM_CHARS]} {body}\n".encode("utf-8")

    @staticmethod
    def _decode(line: bytes) -> dict | None:
        """Parse one journal line; None for torn/corrupt records."""
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            return None
        checksum, sep, body = text.partition(" ")
        if not sep or len(checksum) != _CHECKSUM_CHARS:
            return None
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if digest[:_CHECKSUM_CHARS] != checksum:
            return None
        try:
            record = json.loads(body)
        except ValueError:
            return None
        return record if isinstance(record, dict) else None

    # -- appends --------------------------------------------------------
    def _handle(self):
        if self._file is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self._path, "ab")
        return self._file

    def _append(self, record: dict, durable: bool) -> None:
        handle = self._handle()
        handle.write(self._encode(record))
        handle.flush()
        if durable:
            os.fsync(handle.fileno())

    def record_accepted(self, job_id: str, requests: list[dict], batch: bool) -> None:
        """Journal an admitted job (fsync'd) — call before the 202."""
        record = {
            "type": RECORD_ACCEPTED,
            "job": job_id,
            "batch": batch,
            "requests": requests,
        }
        with self._lock:
            self._append(record, durable=True)
            self._pending[job_id] = record
            self._counts["accepted"] += 1

    def record_finished(self, job_id: str) -> None:
        """Journal a job's completion (success or typed failure alike)."""
        record = {"type": RECORD_DONE, "job": job_id}
        with self._lock:
            self._append(record, durable=False)
            self._pending.pop(job_id, None)
            self._counts["finished"] += 1
            self._dead += 1
            if self._dead >= COMPACT_EVERY:
                self._compact_locked()

    # -- recovery -------------------------------------------------------
    def recover(self) -> list[dict]:
        """Replay the journal; return unfinished ``accepted`` records.

        Corrupt lines (torn tail after a crash, bit rot anywhere) are
        dropped with a warning and counted in ``stats()["dropped"]`` —
        recovery never raises on journal content.  The journal's in-memory
        pending set is reset to what the file says, so a following
        :meth:`compact` bounds the file to exactly the returned records.
        """
        with self._lock:
            try:
                raw = self._path.read_bytes()
            except OSError:
                raw = b""
            dropped = 0
            pending: "OrderedDict[str, dict]" = OrderedDict()
            for line in raw.split(b"\n"):
                if not line.strip():
                    continue
                record = self._decode(line)
                if record is None:
                    dropped += 1
                    continue
                kind = record.get("type")
                job_id = record.get("job")
                if kind == RECORD_ACCEPTED and isinstance(job_id, str):
                    # First record wins: a duplicate accepted line (e.g.
                    # compaction raced a crash) must not replay twice.
                    pending.setdefault(job_id, record)
                elif kind == RECORD_DONE:
                    pending.pop(job_id, None)
                else:
                    dropped += 1
            if dropped:
                log.warning(
                    "job journal %s: dropped %d corrupt record(s) "
                    "(torn tail after a crash is expected and harmless)",
                    self._path,
                    dropped,
                )
            self._pending = pending
            self._dead = 0
            self._counts["dropped"] += dropped
            self._counts["recovered"] = len(pending)
            return list(pending.values())

    # -- compaction -----------------------------------------------------
    def compact(self) -> None:
        """Atomically rewrite the file with only unfinished records; a
        rewrite the disk refuses is logged, never raised."""
        with self._lock:
            self._compact_locked()

    def _compact_locked(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        data = b"".join(self._encode(r) for r in self._pending.values())
        try:
            replace_file(self._path, data, fsync=True)
        except OSError as error:
            # The journal itself is untouched, only longer than it need be:
            # it still recovers exactly the pending set, so keep it and try
            # again after the next ``COMPACT_EVERY`` completions.
            log.warning(
                "job journal %s: compaction failed, keeping the uncompacted "
                "journal: %s",
                self._path,
                error,
            )
        else:
            self._counts["compactions"] += 1
        self._dead = 0

    # -- introspection --------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counter snapshot (served via ``GET /v1/health``)."""
        with self._lock:
            snapshot = dict(self._counts)
            snapshot["pending"] = len(self._pending)
        return snapshot

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
