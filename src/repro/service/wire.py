"""Wire-format helpers shared by the service's server and client.

The service does not invent a protocol: the bodies on the wire *are* the
``repro.api`` payloads (frozen, schema-versioned, JSON-round-trippable),
framed by a thin job envelope.  This module holds the three pieces both
sides must agree on:

* payload dispatch — a ``kind`` field picks the typed request/response
  class (:func:`parse_request` / :func:`parse_response`);
* the canonical byte encoding of a response
  (:func:`canonical_response_bytes`) — sorted keys, no whitespace, one
  trailing newline.  These exact bytes are what the result store persists
  and what every client of the same job receives, which is what makes the
  dedup contract "byte-identical" rather than merely "equal";
* the mapping from a typed error class to an HTTP status class
  (:func:`status_for_error`): malformed requests are the caller's fault
  (400), requests that are well-formed but cannot be satisfied on that
  fabric are unprocessable (422), infrastructure failures — worker death,
  batch timeout — are the gateway's (504), anything unrecognized is a 500.
"""

from __future__ import annotations

import json
from typing import Any

import repro.errors as _errors
from repro.api.specs import (
    REQUEST_KINDS,
    RESPONSE_KINDS,
    ErrorResponse,
    MapRequest,
    MapResponse,
    SimRequest,
    SimResponse,
)
from repro.codec import decode_kind


def parse_request(payload: Any) -> MapRequest | SimRequest:
    """Typed request from a wire payload, dispatched on ``kind``.

    Raises:
        ApiError: for non-dict payloads, unknown kinds, or any malformed
            field — all of which the server answers with HTTP 400 at
            submission time, before the request can reach a worker.
    """
    return decode_kind(payload, REQUEST_KINDS, "request")


def parse_response(payload: Any) -> MapResponse | SimResponse | ErrorResponse:
    """Typed response from a wire payload, dispatched on ``kind``.

    Raises:
        ApiError: for non-dict payloads, unknown kinds or any malformed field.
    """
    return decode_kind(payload, RESPONSE_KINDS, "response")


def canonical_response_bytes(
    response: MapResponse | SimResponse | ErrorResponse,
) -> bytes:
    """The one canonical byte encoding of a response payload.

    Sorted keys, compact separators, UTF-8, newline-terminated — ready to
    persist as a store entry, serve as a result body, or stream as one
    NDJSON line, all byte-identical to each other.
    """
    return (
        json.dumps(response.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


#: Error classes with a dedicated status: malformed request vs. batch
#: infrastructure (worker death / per-request timeout).
_STATUS_BY_ERROR = {"ApiError": 400, "BatchError": 504}

#: Every other library error class means "well-formed request that cannot
#: be satisfied on that input" — 422.  Derived from the live exception
#: hierarchy so new subsystem errors classify themselves.  ServiceError
#: and its whole subtree (overload/draining/quota/circuit-breaker) are
#: excluded: those describe the service or the client's transport, never
#: the request content, so an unexpected one surfaces as a 500.
_CONTENT_ERRORS = frozenset(
    name
    for name, obj in vars(_errors).items()
    if isinstance(obj, type)
    and issubclass(obj, _errors.ReproError)
    and obj is not _errors.ReproError
    and name not in _STATUS_BY_ERROR
    and not issubclass(obj, _errors.ServiceError)
)


def status_for_error(error: str | None) -> int:
    """HTTP status for a completed job slot (``None`` = success, 200)."""
    if error is None:
        return 200
    specific = _STATUS_BY_ERROR.get(error)
    if specific is not None:
        return specific
    if error in _CONTENT_ERRORS:
        return 422
    return 500
