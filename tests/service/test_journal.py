"""The write-ahead journal's edge cases, crash shapes first.

Covers the satellite checklist explicitly: a torn final record (the only
kind of tear a single-``write`` append allows) is dropped with a warning
and costs exactly that record, duplicate replay of the same accepted line
is idempotent, compaction keeps the file bounded by in-flight work
rather than total throughput, and a compaction the disk refuses leaves
the uncompacted journal in place.
"""

from __future__ import annotations

import errno
import json
import logging

import pytest

from repro.service import journal as journal_module
from repro.service.journal import JobJournal
from tests.service.test_store import fail_writes


def request_payload(tag: str = "x") -> dict:
    return {"kind": "map-request", "app": "vopd", "tag": tag}


def accept(journal: JobJournal, job_id: str, tag: str = "x") -> None:
    journal.record_accepted(job_id, [request_payload(tag)], batch=False)


def legacy_accepted_line(job_id: str, requests: list[dict]) -> bytes:
    """An ``accepted`` line as journals written before the service dropped
    client quotas and priorities carry it: two more keys, same checksum."""
    return JobJournal._encode(
        {
            "type": "accepted",
            "job": job_id,
            "batch": False,
            "client": "alice",
            "priority": "high",
            "requests": requests,
        }
    )


class TestRoundTrip:
    def test_unfinished_jobs_recover_in_order(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        accept(journal, "a")
        accept(journal, "b")
        accept(journal, "c")
        journal.record_finished("b")
        journal.close()

        replay = JobJournal(tmp_path / "journal.ndjson")
        records = replay.recover()
        assert [record["job"] for record in records] == ["a", "c"]
        assert records[0]["requests"] == [request_payload()]
        assert records[0]["batch"] is False
        assert replay.stats()["recovered"] == 2

    def test_record_carries_batch_and_requests_only(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        journal.record_accepted("a", [request_payload()], batch=True)
        (record,) = JobJournal(journal.path).recover()
        assert set(record) == {"type", "job", "batch", "requests"}
        assert record["batch"] is True

    def test_a_record_with_client_and_priority_still_recovers(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        path.write_bytes(legacy_accepted_line("old", [request_payload()]))
        (record,) = JobJournal(path).recover()
        assert record["job"] == "old"
        assert record["requests"] == [request_payload()]

    def test_empty_or_missing_file_recovers_to_nothing(self, tmp_path):
        assert JobJournal(tmp_path / "absent.ndjson").recover() == []
        (tmp_path / "empty.ndjson").write_bytes(b"")
        assert JobJournal(tmp_path / "empty.ndjson").recover() == []


class TestCorruption:
    def test_torn_tail_is_dropped_with_a_warning(self, tmp_path, caplog):
        journal = JobJournal(tmp_path / "journal.ndjson")
        accept(journal, "whole")
        journal.close()
        # Simulate a crash mid-append: half a record, no newline.
        with open(journal.path, "ab") as handle:
            handle.write(b'deadbeef0123 {"type":"accepted","job":"to')

        replay = JobJournal(journal.path)
        with caplog.at_level(logging.WARNING, "repro.service.journal"):
            records = replay.recover()
        assert [record["job"] for record in records] == ["whole"]
        assert replay.stats()["dropped"] == 1
        assert any("dropped 1 corrupt record" in m for m in caplog.messages)

    def test_flipped_bit_costs_only_that_record(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        accept(journal, "a")
        accept(journal, "b")
        accept(journal, "c")
        journal.close()
        lines = journal.path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"job"', b'"jXb"')  # checksum now wrong
        journal.path.write_bytes(b"".join(lines))

        records = JobJournal(journal.path).recover()
        assert [record["job"] for record in records] == ["a", "c"]

    def test_unknown_record_type_is_dropped_not_fatal(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        accept(journal, "a")
        journal._append({"type": "future-extension", "job": "a"}, durable=False)
        journal.close()
        replay = JobJournal(journal.path)
        assert [r["job"] for r in replay.recover()] == ["a"]
        assert replay.stats()["dropped"] == 1


class TestIdempotence:
    def test_duplicate_accepted_lines_replay_once(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        accept(journal, "dup", tag="first")
        accept(journal, "dup", tag="second")
        journal.close()
        records = JobJournal(journal.path).recover()
        assert len(records) == 1
        # First record wins: replay must not resurrect a later rewrite.
        assert records[0]["requests"][0]["tag"] == "first"

    def test_tombstone_without_accepted_record_is_harmless(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        journal.record_finished("never-accepted")
        accept(journal, "live")
        journal.close()
        records = JobJournal(journal.path).recover()
        assert [record["job"] for record in records] == ["live"]

    def test_recover_twice_is_stable(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        accept(journal, "a")
        journal.close()
        replay = JobJournal(journal.path)
        first = replay.recover()
        second = replay.recover()
        assert first == second


class TestCompaction:
    def test_compaction_keeps_only_unfinished_records(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        for index in range(8):
            accept(journal, f"job-{index}")
        for index in range(6):
            journal.record_finished(f"job-{index}")
        journal.compact()
        lines = [
            line for line in journal.path.read_bytes().split(b"\n") if line.strip()
        ]
        assert len(lines) == 2
        jobs = {json.loads(line.split(b" ", 1)[1])["job"] for line in lines}
        assert jobs == {"job-6", "job-7"}
        # The compacted file still recovers correctly.
        assert {
            record["job"] for record in JobJournal(journal.path).recover()
        } == {"job-6", "job-7"}

    def test_auto_compaction_bounds_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_module, "COMPACT_EVERY", 4)
        journal = JobJournal(tmp_path / "journal.ndjson")
        for index in range(40):
            accept(journal, f"job-{index}")
            journal.record_finished(f"job-{index}")
        journal.close()
        size = journal.path.stat().st_size
        # Without compaction this would be 80 records; the bound is the
        # compact window (< 4 accepted + 4 done records ≈ 8 lines).
        lines = [
            line for line in journal.path.read_bytes().split(b"\n") if line.strip()
        ]
        assert len(lines) <= 8, f"journal grew to {len(lines)} lines ({size} B)"
        assert journal.stats()["compactions"] >= 9

    def test_compaction_of_fully_finished_journal_empties_it(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        accept(journal, "a")
        journal.record_finished("a")
        journal.compact()
        assert journal.path.read_bytes() == b""

    def test_appends_work_after_compaction(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.ndjson")
        accept(journal, "a")
        journal.compact()
        accept(journal, "b")
        journal.close()
        assert {
            record["job"] for record in JobJournal(journal.path).recover()
        } == {"a", "b"}


class TestCompactionFailures:
    @pytest.mark.parametrize(
        "code, step", [(errno.EROFS, "replace"), (errno.ENOSPC, "open")]
    )
    def test_a_refused_compaction_keeps_the_journal_and_does_not_raise(
        self, tmp_path, monkeypatch, caplog, code, step
    ):
        monkeypatch.setattr(journal_module, "COMPACT_EVERY", 2)
        journal = JobJournal(tmp_path / "journal.ndjson")
        for job_id in ("a", "b", "c"):
            accept(journal, job_id)
        journal.record_finished("a")
        before = journal.path.read_bytes()
        fail_writes(monkeypatch, code, step)
        with caplog.at_level(logging.WARNING, logger=journal_module.__name__):
            journal.record_finished("b")  # the second completion compacts
        monkeypatch.undo()
        assert "compaction failed" in caplog.text
        assert f"[Errno {code}]" in caplog.text
        assert [path.name for path in tmp_path.iterdir()] == ["journal.ndjson"]
        # Uncompacted: every earlier record, then b's tombstone.
        assert journal.path.read_bytes().startswith(before)
        assert journal.stats()["compactions"] == 0
        assert [record["job"] for record in JobJournal(journal.path).recover()] == [
            "c"
        ]
