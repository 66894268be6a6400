"""Faults for the tests, injected as a mapper: ``test-fault``.

A fault is a mapper that faults.  The ``fault_mapper`` fixture
(tests/conftest.py) files :func:`map_with_fault` through the public plugin
API (``register_mapper``) for one test and takes it out again afterwards,
so no test that walks every registered mapper ever meets it.  A request
names the fault in its options (:func:`faulty` builds one), and the fault
fires wherever the mapper runs: in this process under the serial
executor, in a worker thread, or in a pool worker — workers are forked
after the fixture has registered the mapper, so they inherit it.

Without a fault the mapper is NMAP (``nmap_single_path``), so a request
that survives its fault answers with NMAP's placement.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.api import MapperOptions, MapRequest
from repro.mapping.nmap import nmap_single_path

FAULT_MAPPER = "test-fault"


@dataclass(frozen=True)
class FaultOptions(MapperOptions):
    """What the mapper does before it maps.

    Attributes:
        crash: the process hard-exits (``os._exit``): a segfaulting native
            kernel or an OOM kill, with no cleanup and no traceback.
        exit_thread: the thread dies (``SystemExit``), past every
            ``except Exception``.
        sleep: seconds to stall first (a deterministic slow slot).
        once: a sentinel path; only the caller that creates it faults, so
            a retry succeeds.
    """

    crash: bool = False
    exit_thread: bool = False
    sleep: float = field(default=0.0, metadata={"ge": 0})
    once: str | None = None


def _first_caller(sentinel: str) -> bool:
    try:
        os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def map_with_fault(core_graph, topology, *, crash, exit_thread, sleep, once):
    """Fault as the options say, then map like NMAP."""
    if once is None or _first_caller(once):
        time.sleep(sleep)
        if crash:
            os._exit(23)
        if exit_thread:
            raise SystemExit("test-fault: this thread dies")
    return nmap_single_path(core_graph, topology)


def faulty(app: str = "pip", tag: str | None = None, **fault) -> MapRequest:
    """A map request whose mapper faults as ``FaultOptions(**fault)`` says."""
    return MapRequest(
        app=app,
        mapper=FAULT_MAPPER,
        options=FaultOptions(**fault),
        price_bandwidth=False,
        tag=tag,
    )
