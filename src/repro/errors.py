"""Exception hierarchy for the NMAP reproduction library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch one base class at an API boundary.  Subclasses partition failures by
subsystem (graphs, mapping, routing, LP solving, simulation, design
generation) which keeps error handling in tests and tools precise.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ApiError(ReproError):
    """A typed API request/response is malformed or names unknown entities."""


class GraphError(ReproError):
    """A core graph or NoC topology graph is malformed or misused."""


class MappingError(ReproError):
    """A core-to-node mapping is invalid, incomplete, or impossible."""


class PartitionError(ReproError):
    """A fabric partition is malformed or a partitioner cannot run.

    Raised by :mod:`repro.partition` for invalid shard counts (non-positive,
    or more shards than routers), malformed :class:`PartitionSpec` payloads,
    unknown partitioner names, and explicitly requested partitioners whose
    optional dependency (metis) is not installed.
    """


class RoutingError(ReproError):
    """A routing request cannot be carried out on the given topology."""


class BandwidthError(RoutingError):
    """Bandwidth constraints (Inequality 3 of the paper) cannot be met."""


class SolverError(ReproError):
    """The LP/ILP backend failed or returned an unusable status."""


class FaultError(ReproError):
    """A fault scenario cannot be carried out on the given fabric.

    Raised when a :class:`repro.faults.FaultSpec` names links or routers the
    topology does not have, when injected faults disconnect a commodity's
    source from its destination (no surviving minimal path), or when
    rerouting around faults re-introduces a channel-dependency cycle that
    the mandatory deadlock re-check refuses to ship.
    """


class BatchError(ReproError):
    """A batch slot failed for infrastructure reasons, not request content.

    Used by :func:`repro.api.run_batch` to label per-slot failures that are
    properties of the execution environment — a worker process that died
    executing the request (after the bounded retries were exhausted) or a
    request exceeding the batch's per-request timeout — as opposed to typed
    library errors the request itself raised.
    """


class ServiceError(ReproError):
    """The mapping/simulation service could not satisfy a client call.

    Raised by :class:`repro.service.client.ServiceClient` for transport
    failures (server unreachable, malformed reply), overload rejections
    (HTTP 429/503) and, from the convenience ``map``/``simulate`` helpers,
    for jobs that completed with a typed failure — in that case the
    worker-side :class:`repro.api.ErrorResponse` payload rides along as
    ``response`` so callers keep the full typed round trip.

    ``retry_after`` carries the server's back-pressure hint in seconds
    (the ``Retry-After`` header on 429/503 rejections) when one was given;
    callers that implement their own retry loops should honor it.
    """

    def __init__(self, message: str, response=None, retry_after=None) -> None:
        super().__init__(message)
        self.response = response
        self.retry_after = retry_after


class StoreError(ServiceError):
    """The result store could not persist an entry (read-only root, full disk).

    Raised by :meth:`repro.service.store.ResultStore.put`; the message names
    the entry's path and the OS error.  :meth:`~repro.service.store.ResultStore.publish`
    catches it: the computed bytes still reach the job and every waiter, and
    the failure is counted as ``store.write_errors`` in ``/v1/health``.
    """


class CircuitOpenError(ServiceError):
    """The client's circuit breaker is open; the call failed fast.

    After ``breaker_threshold`` consecutive transport failures,
    :class:`repro.service.client.ServiceClient` stops hammering a server
    that stays down and fails every call immediately for the cooldown
    window instead of eating a connect timeout per call.  ``retry_after``
    is the remaining cooldown in seconds; the first call after it elapses
    probes the server again (half-open) and closes the breaker on success.
    """


class SimulationError(ReproError):
    """The cycle-level NoC simulator was configured or driven incorrectly."""


class DesignError(ReproError):
    """NoC design generation (the ×pipesCompiler analogue) failed."""
