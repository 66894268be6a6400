"""The model layer's contract for traffic injectors, and their registry.

``simnoc`` is split into two layers (see ``ARCHITECTURE.md``):

* the **model layer** — the fabric's wiring and the traffic injectors,
  which define *what* is simulated;
* the **engine layer** (:mod:`repro.simnoc.engines`) — the backend that
  defines *how* simulated time advances (a per-cycle sweep over flattened
  arrays).

The router models are a closed set: the paper's wormhole router and its
virtual-channel variant, whose object model lives under
``tests/reference`` and which the flattened engine transliterates.
Traffic patterns stay pluggable:
this module holds the structural protocol the engines poll a source
through, plus the registry that makes adding an injector one decorator,
not an edit to the network builder or the engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.packet import Packet


@runtime_checkable
class TrafficSource(Protocol):
    """What every traffic injector must expose to the engines.

    A source owns one stream of packets entering the network at
    ``src_node``.  It can be polled with :meth:`packets_for_cycle` at the
    cycles :attr:`next_event_cycle` names.

    The engine replays each source on its own, ahead of time
    (:mod:`repro.simnoc.schedule`), so a source must be open-loop: no
    dependence on the network or on another source.  This is the one
    contract every engine name relies on.  It
    may offer the optional batch method ``schedule(until)``: every packet
    polling its event cycles below ``until`` would create, as ``(cycles,
    commodities, dsts, paths)`` — per-packet lists in creation order,
    ``paths`` node lists or ``None`` for "XY-route from ``src_node``", each
    packet ``config.flits_per_packet`` flits — leaving the source in the
    state polling would.  Without it the source is polled; a subclass
    overriding one of the two methods must override both.
    """

    src_node: int

    def packets_for_cycle(
        self, cycle: int, next_packet_id: Callable[[], int]
    ) -> "list[Packet]":
        """Packets whose creation time falls on this cycle (possibly none)."""
        ...

    @property
    def next_event_cycle(self) -> int:
        """First integer cycle at which the source can produce a packet."""
        ...


def _load_models() -> None:
    import repro.simnoc.synthetic  # noqa: F401  (registers synthetic patterns)


# ----------------------------------------------------------------------
# traffic-pattern registry
# ----------------------------------------------------------------------
#: ``factory(topology, config, injection_rate) -> list[TrafficSource]``.
TrafficFactory = Callable[..., "list[TrafficSource]"]

#: The commodity-driven pattern handled by ``build_network`` itself (it
#: needs the mapped core graph and a routing result, which synthetic
#: patterns do not).  Listed first and reserved, with no factory.
TRACE_PATTERN = "trace"

TRAFFIC_PATTERNS = Registry(
    "traffic pattern", SimulationError, _load_models, order=(TRACE_PATTERN,)
)
TRAFFIC_PATTERNS.add(TRACE_PATTERN, None)

#: ``@register_traffic_pattern(name)`` on a :data:`TrafficFactory`
#: (``injection_rate`` in flits/cycle per injecting node, one source each);
#: ``list_traffic_patterns()`` lists ``"trace"`` first, synthetics sorted.
register_traffic_pattern = TRAFFIC_PATTERNS.register
list_traffic_patterns = TRAFFIC_PATTERNS.names


def get_traffic_pattern(name: str) -> TrafficFactory:
    """Resolve a synthetic traffic factory by name (never ``"trace"``)."""
    factory = TRAFFIC_PATTERNS.get(name)
    if factory is None:
        raise SimulationError(
            f"unknown traffic pattern {name!r} for a synthetic network: it is "
            "commodity-driven (build_network)"
        )
    return factory
