"""``repro.service`` — mapping/simulation-as-a-service over ``repro.api``.

The typed payloads were one step from a wire protocol; this package takes
the step.  A stdlib-only asyncio HTTP job service
(:class:`~repro.service.server.NocService`) fronts the batch engine with
admission control and a content-addressed result store
(:class:`~repro.service.store.ResultStore`) keyed by
:func:`repro.api.canonical_request_key` — identical requests, however many
clients submit them concurrently, execute once and everyone reads
byte-identical result bodies.  A thin blocking client
(:class:`~repro.service.client.ServiceClient`) round-trips the same typed
payloads.

Quick tour::

    from repro.api import MapRequest, TopologySpec
    from repro.service import NocService, ServiceClient, ServiceConfig

    service = NocService(ServiceConfig(executor="thread"))
    port = service.start()                      # background thread
    client = ServiceClient(f"http://127.0.0.1:{port}")
    response = client.map(MapRequest(app="vopd",
                                     topology=TopologySpec.parse("torus:4x4")))
    service.shutdown()                          # drains, never drops results

Or from the shell: ``repro serve`` / ``repro submit`` (see the CLI).
"""

from repro.service.client import JobTicket, ServiceClient, StreamEvent
from repro.service.jobs import (
    DrainingError,
    JobRegistry,
    JobRunner,
    OverloadedError,
)
from repro.service.journal import JobJournal
from repro.service.server import NocService, ServiceConfig
from repro.service.store import ResultStore
from repro.service.wire import (
    canonical_response_bytes,
    parse_request,
    parse_response,
    status_for_error,
)

__all__ = [
    "DrainingError",
    "JobJournal",
    "JobRegistry",
    "JobRunner",
    "JobTicket",
    "NocService",
    "OverloadedError",
    "ResultStore",
    "ServiceClient",
    "ServiceConfig",
    "StreamEvent",
    "canonical_response_bytes",
    "parse_request",
    "parse_response",
    "status_for_error",
]
