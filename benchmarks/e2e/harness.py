"""Measurement plumbing shared by every workload: spans, statistics, host facts.

Stdlib only and free of ``repro`` imports, so the parent process (which
times the children's set-up from outside) can use it without paying the
library import it is trying to measure.
"""

from __future__ import annotations

import math
import os
import platform
import threading
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder: ``{id, name, start, end, parent, request_id}``.

    Spans nest per thread (the service workloads record from two client
    threads); a span without an explicit ``request_id`` inherits its
    parent's, so every span of one request shares an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _add(self, record: dict) -> dict:
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        return record

    def record(
        self,
        name: str,
        start: float,
        end: float,
        request_id: str | None,
        parent: int | None = None,
    ) -> int:
        """Add a finished span from clock readings the caller already took."""
        return self._add(
            {
                "name": name,
                "parent": parent,
                "request_id": request_id,
                "start": start,
                "end": end,
            }
        )["id"]

    @contextmanager
    def span(self, name: str, request_id: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent["request_id"]
        record = self._add(
            {
                "name": name,
                "parent": None if parent is None else parent["id"],
                "request_id": request_id,
            }
        )
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals


class Calibration:
    """Tracks how fast this host runs a fixed loop while a workload is measured.

    The sandbox's CPU speed drifts by tens of percent over seconds to
    minutes (frequency, neighbours); CPU time drifts with it, so no clock on
    the host is steady.  The harness therefore interleaves a fixed,
    repo-independent loop with the measured work and divides each round's
    wall time by the slowdown the loop saw around it.  Timings are thus in
    seconds of a host that runs the loop at ``REFERENCE_NS`` per iteration —
    this sandbox in its fast state — and are equal to wall-clock seconds on
    such a host.  The raw wall-clock figures are recorded beside them.

    Disabled, it samples nothing and reports 1.0: the service workloads —
    three processes, the kernel and both CPUs — do not follow a one-thread
    loop (rescaling widened ``service_warm``'s spread over ten seeds from
    4.5 % to 13.6 %), so they stay in wall-clock seconds.
    """

    REFERENCE_NS = 100.0
    #: Iterations of a sample taken between rounds / after one request.
    BOUNDARY = 200_000
    INTERLEAVED = 20_000

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples: list[tuple[int, float]] = []

    def sample(self, iterations: int) -> None:
        if not self.enabled:
            return
        start = time.perf_counter()
        table: dict[int, int] = {}
        recent: list[int] = []
        total = 0
        for i in range(iterations):
            total += i * i
            table[i & 255] = total
            recent.append(i)
            if len(recent) > 64:
                recent.clear()
        self.samples.append((iterations, time.perf_counter() - start))

    def slowdown(self, first: int) -> float:
        """Loop time over ``samples[first:]`` relative to the reference host (1.0 when disabled)."""
        if not self.enabled:
            return 1.0
        iterations = sum(sample[0] for sample in self.samples[first:])
        seconds = sum(sample[1] for sample in self.samples[first:])
        return seconds * 1e9 / (iterations * self.REFERENCE_NS)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: list[float]) -> dict[str, float]:
    """Median with min, quartiles and max — the spread recorded beside it."""
    return {
        "median": percentile(values, 0.5),
        "min": min(values),
        "q1": percentile(values, 0.25),
        "q3": percentile(values, 0.75),
        "max": max(values),
        "n": len(values),
    }


def process_cpu_seconds(pid: int) -> float:
    """utime+stime of ``pid`` plus its reaped children, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name (field 2) may hold spaces; fields resume after ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = sum(int(fields[index]) for index in (11, 12, 13, 14))
    return ticks / os.sysconf("SC_CLK_TCK")


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest matching mount)."""
    target = os.path.realpath(path)
    best, best_type = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                if target.startswith(mount.rstrip("/") + "/") or target == mount:
                    if len(mount) >= len(best):
                        best, best_type = mount, fstype
    except OSError:
        pass
    return best_type


def host_facts() -> dict:
    """The part of the host fingerprint that needs no ``repro`` import."""
    try:
        load_1min = os.getloadavg()[0]
    except OSError:
        load_1min = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_1min_at_start": load_1min,
    }
