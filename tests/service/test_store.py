"""The content-addressed store's contracts, failure paths first.

Covers the satellite checklist explicitly: corrupted/truncated entries
fall back to recompute (never crash), concurrent writers of one key leave
one valid entry (atomic rename), a schema-version bump invalidates old
entries, and the in-flight protocol executes a stampede exactly once.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import types

import pytest

from repro.errors import ServiceError, StoreError
from repro.service import store as store_module
from repro.service.store import ResultStore

KEY = "ab" + "cd" * 31  # 64 hex chars, like a real SHA-256 key


def entry_bytes(tag: str = "x") -> bytes:
    return (
        json.dumps({"kind": "map-response", "tag": tag}, sort_keys=True) + "\n"
    ).encode()


class TestBasicTier:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(KEY) is None
        store.put(KEY, entry_bytes())
        assert store.get(KEY) == entry_bytes()

    def test_entries_are_schema_namespaced_and_sharded(self, tmp_path):
        store = ResultStore(tmp_path, schema_version=1)
        store.put(KEY, entry_bytes())
        path = store.path_for(KEY)
        assert path.exists()
        assert path.parent.name == KEY[:2]
        assert path.parent.parent.name == "v1"

    def test_schema_bump_invalidates_old_entries(self, tmp_path):
        ResultStore(tmp_path, schema_version=1).put(KEY, entry_bytes())
        bumped = ResultStore(tmp_path, schema_version=2)
        assert bumped.get(KEY) is None
        # The old namespace is untouched — a rollback still reads it.
        assert ResultStore(tmp_path, schema_version=1).get(KEY) == entry_bytes()

    def test_persistence_across_store_instances(self, tmp_path):
        ResultStore(tmp_path).put(KEY, entry_bytes())
        assert ResultStore(tmp_path).get(KEY) == entry_bytes()

    def test_memory_store_has_no_paths_but_same_semantics(self):
        store = ResultStore(None)
        with pytest.raises(ValueError):
            store.path_for(KEY)
        store.put(KEY, entry_bytes())
        assert store.get(KEY) == entry_bytes()


class TestCorruptionFallback:
    @pytest.mark.parametrize(
        "garbage",
        [
            b"",  # zero-length file
            b'{"kind": "map-resp',  # truncated mid-write
            b"\x00\xff\x17 not json at all",
            b'["a", "list", "not", "an", "object"]',
            b'{"no_kind_field": true}',
        ],
    )
    def test_bad_entry_reads_as_miss_and_is_dropped(self, tmp_path, garbage):
        store = ResultStore(tmp_path)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(garbage)
        assert store.get(KEY) is None
        assert not path.exists()
        assert store.stats()["corrupt_dropped"] == 1

    def test_corrupt_entry_recomputes_and_repairs(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"garbage{{{")
        data, origin = store.get_or_compute(KEY, lambda: (entry_bytes(), True))
        assert origin == "computed"
        assert data == entry_bytes()
        assert store.get(KEY) == entry_bytes()  # repaired on disk


class TestAtomicWrites:
    def test_concurrent_writers_produce_one_valid_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        barrier = threading.Barrier(8)
        errors: list[BaseException] = []

        def write():
            try:
                barrier.wait()
                for _ in range(50):
                    store.put(KEY, entry_bytes())
            except BaseException as exc:  # noqa: BLE001 — recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert store.get(KEY) == entry_bytes()
        # No temp droppings, exactly one entry file.
        files = list(store.path_for(KEY).parent.iterdir())
        assert files == [store.path_for(KEY)]


class TestInFlightDedup:
    def test_stampede_executes_once_and_bytes_match(self, tmp_path):
        store = ResultStore(tmp_path)
        calls = []
        barrier = threading.Barrier(10)
        results: list[bytes] = []
        lock = threading.Lock()

        def compute():
            calls.append(1)
            return entry_bytes("computed-once"), True

        def submit():
            barrier.wait()
            data, _ = store.get_or_compute(KEY, compute)
            with lock:
                results.append(data)

        threads = [threading.Thread(target=submit) for _ in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(calls) == 1
        assert len(set(results)) == 1 and len(results) == 10
        assert store.stats()["executed"] == 1

    def test_publish_between_miss_and_lock_executes_once(self, tmp_path):
        """B runs claim -> compute -> publish right after A's store miss.

        A reaches its lock with nothing in flight and the key already
        published; owning it anyway would execute the request twice.
        """
        store = ResultStore(tmp_path)
        calls: list[str] = []
        real_get = store.get

        def racing_get(key):
            data = real_get(key)
            if store.get is racing_get:  # A's first read only
                store.get = real_get
                store.get_or_compute(
                    key, lambda: (calls.append("B") or entry_bytes("once"), True)
                )
            return data

        store.get = racing_get
        data, origin = store.get_or_compute(
            KEY, lambda: (calls.append("A") or entry_bytes("twice"), True)
        )
        assert calls == ["B"]
        assert (data, origin) == (entry_bytes("once"), "hit")
        assert store.stats()["executed"] == 1
        assert store.stats()["inflight"] == 0

    def test_error_results_reach_waiters_but_are_not_persisted(self, tmp_path):
        store = ResultStore(tmp_path)
        state, _ = store.claim(KEY)
        assert state == "owned"
        waited: list[bytes | None] = []
        thread = threading.Thread(target=lambda: waited.append(store.wait(KEY, 10)))
        thread.start()
        error = (
            json.dumps({"kind": "error-response", "error": "BatchError"}) + "\n"
        ).encode()
        store.publish(KEY, error, cache=False)
        thread.join(timeout=30)
        assert waited == [error]
        assert store.get(KEY) is None  # next submission recomputes
        assert store.stats()["errors_uncached"] == 1

    def test_abandon_wakes_waiters_with_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claim(KEY)[0] == "owned"
        waited: list[bytes | None] = []
        thread = threading.Thread(target=lambda: waited.append(store.wait(KEY, 10)))
        thread.start()
        store.abandon(KEY)
        thread.join(timeout=30)
        assert waited == [None]
        # The key is claimable again.
        assert store.claim(KEY)[0] == "owned"

    def test_claim_after_publish_is_a_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claim(KEY)[0] == "owned"
        store.publish(KEY, entry_bytes())
        state, data = store.claim(KEY)
        assert state == "hit"
        assert data == entry_bytes()


def fail_writes(monkeypatch, code: int = errno.EROFS, step: str = "replace") -> None:
    """Make :func:`replace_file` — the store's entry writes and the journal's
    compaction — fail with ``code``, the way a read-only or full disk does
    (root ignores ``chmod``, so the failure is patched in).  ``step`` is
    where: the ``open`` of the temp file or the ``os.replace`` that
    publishes it."""

    def fail(*args):
        raise OSError(code, os.strerror(code))

    if step == "replace":
        patched_os = types.SimpleNamespace(**{**vars(os), "replace": fail})
        monkeypatch.setattr(store_module, "os", patched_os)
    else:
        monkeypatch.setattr(store_module, "open", fail, raising=False)


class TestWriteFailures:
    @pytest.mark.parametrize(
        "code, step", [(errno.EROFS, "replace"), (errno.ENOSPC, "open")]
    )
    def test_put_raises_a_store_error_naming_path_and_errno(
        self, tmp_path, monkeypatch, code, step
    ):
        store = ResultStore(tmp_path)
        fail_writes(monkeypatch, code, step)
        with pytest.raises(StoreError) as raised:
            store.put(KEY, entry_bytes())
        assert isinstance(raised.value, ServiceError)
        assert str(store.path_for(KEY)) in str(raised.value)
        assert f"[Errno {code}]" in str(raised.value)
        assert not list(tmp_path.rglob("*.tmp"))
        assert store.stats()["stored"] == 0

    def test_publish_still_hands_the_bytes_to_waiters(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        assert store.claim(KEY)[0] == "owned"
        waited: list[bytes | None] = []
        thread = threading.Thread(target=lambda: waited.append(store.wait(KEY, 10)))
        thread.start()
        fail_writes(monkeypatch)
        store.publish(KEY, entry_bytes())
        thread.join(timeout=30)
        assert waited == [entry_bytes()]
        assert not list(tmp_path.rglob("*.tmp"))
        stats = store.stats()
        assert (stats["write_errors"], stats["executed"], stats["inflight"]) == (1, 1, 0)
        monkeypatch.undo()
        assert store.get(KEY) is None  # nothing persisted: the next one recomputes
        assert store.claim(KEY)[0] == "owned"


def keyed(index: int) -> str:
    """Distinct 64-hex-char keys, stable per index."""
    return f"{index:02x}" * 32


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBoundedDisk:
    """The eviction ladder: TTL expiry, LRU cap, in-flight protection."""

    def test_ttl_expiry_reads_as_miss_and_unlinks(self, tmp_path):
        clock = FakeClock()
        store = ResultStore(tmp_path, ttl=60.0, clock=clock)
        store.put(KEY, entry_bytes())
        clock.advance(59.0)
        assert store.get(KEY) == entry_bytes()  # still fresh (and touched)
        clock.advance(59.0)
        assert store.get(KEY) == entry_bytes()  # the touch reset the clock
        clock.advance(61.0)
        assert store.get(KEY) is None
        assert not store.path_for(KEY).exists()
        assert store.stats()["ttl_expired"] == 1

    def test_ttl_expiry_in_memory_tier(self):
        clock = FakeClock()
        store = ResultStore(None, ttl=10.0, clock=clock)
        store.put(KEY, entry_bytes())
        clock.advance(11.0)
        assert store.get(KEY) is None
        assert store.stats()["ttl_expired"] == 1

    def test_size_cap_evicts_least_recently_read(self, tmp_path):
        clock = FakeClock()
        size = len(entry_bytes())
        store = ResultStore(tmp_path, max_bytes=3 * size, clock=clock)
        for index in range(3):
            store.put(keyed(index), entry_bytes())
            clock.advance(1.0)
        # Touch key 0: key 1 becomes the LRU victim.
        assert store.get(keyed(0)) is not None
        clock.advance(1.0)
        store.put(keyed(3), entry_bytes())
        assert store.get(keyed(1)) is None, "LRU entry should have been evicted"
        for index in (0, 2, 3):
            assert store.get(keyed(index)) is not None
        assert store.stats()["evicted"] == 1
        assert store.stats()["bytes"] <= 3 * size

    def test_sustained_writes_keep_disk_bounded(self, tmp_path):
        size = len(entry_bytes())
        cap = 5 * size
        store = ResultStore(tmp_path, max_bytes=cap)
        for index in range(50):
            store.put(keyed(index), entry_bytes())
        assert store.stats()["bytes"] <= cap
        assert store.stats()["entries"] <= 5
        namespace = store.namespace
        on_disk = sum(
            entry.stat().st_size
            for shard in namespace.iterdir()
            for entry in shard.iterdir()
        )
        assert on_disk <= cap

    def test_inflight_keys_are_never_evicted(self, tmp_path):
        size = len(entry_bytes())
        store = ResultStore(tmp_path, max_bytes=2 * size)
        assert store.claim(keyed(0))[0] == "owned"
        store.publish(keyed(0), entry_bytes())
        # A waiter is now parked on key 1's computation.
        assert store.claim(keyed(1))[0] == "owned"
        waited: list[bytes | None] = []
        thread = threading.Thread(
            target=lambda: waited.append(store.wait(keyed(1), 10))
        )
        thread.start()
        # These writes overflow the cap, but key 1 is in flight: its
        # eventual publish must reach the waiter untouched.
        for index in range(2, 6):
            store.put(keyed(index), entry_bytes())
        store.publish(keyed(1), entry_bytes("published"))
        thread.join(timeout=30)
        assert waited == [entry_bytes("published")]

    def test_recency_survives_restart_via_mtimes(self, tmp_path):
        import os
        import time

        first = ResultStore(tmp_path, max_bytes=10_000)
        for index in range(3):
            first.put(keyed(index), entry_bytes())
        # Make key 0 the most recently used on disk, unambiguously.
        now = time.time()
        os.utime(first.path_for(keyed(1)), (now - 200, now - 200))
        os.utime(first.path_for(keyed(2)), (now - 100, now - 100))
        os.utime(first.path_for(keyed(0)), (now, now))

        size = len(entry_bytes())
        second = ResultStore(tmp_path, max_bytes=3 * size)
        assert second.stats()["entries"] == 3
        second.put(keyed(3), entry_bytes())
        # The restart-seeded LRU order evicts key 1 (oldest mtime).
        assert second.get(keyed(1)) is None
        assert second.get(keyed(0)) is not None

    def test_unbounded_store_reports_no_tracking_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, entry_bytes())
        stats = store.stats()
        assert "bytes" not in stats and "entries" not in stats
