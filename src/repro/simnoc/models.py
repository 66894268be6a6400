"""The model layer's contracts: what routers and traffic injectors must be.

``simnoc`` is split into two layers (see ``ARCHITECTURE.md``):

* the **model layer** — routers, network interfaces, links and traffic
  injectors, composable components that define *what* is simulated;
* the **engine layer** (:mod:`repro.simnoc.engines`) — interchangeable
  backends that define *how* simulated time advances (cycle-accurate scan
  or event-driven skipping).

This module holds the small structural protocols the engines program
against, plus the registries that make both router models and traffic
patterns pluggable: adding a new router or injector is one decorator, not
an edit to the network builder or the engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnoc.packet import Packet


@runtime_checkable
class RouterModel(Protocol):
    """What every router implementation must expose to the engines.

    A router owns input buffers (``inputs``, keyed by upstream node id or
    ``LOCAL``) and output ports (``outputs``, keyed by downstream node id or
    ``LOCAL`` for ejection).  The engines never look inside beyond these
    four methods plus the two port dicts the builder wires.
    """

    node: int
    inputs: dict[int, Any]
    outputs: dict[int, Any]

    def step(self, cycle: int, deliver: Callable) -> int:
        """Advance one cycle; return the number of flits moved."""
        ...

    def buffered_flits(self) -> int:
        """Total flits sitting in this router's input buffers."""
        ...

    def is_idle(self) -> bool:
        """True when stepping would be a no-op (modulo token refills)."""
        ...

    def next_action_cycle(self, cycle: int) -> int | None:
        """Earliest future cycle a step could change state *by itself*.

        ``None`` means only an external event (flit arrival, credit return)
        can make this router act again.  The event engine uses this to skip
        dead cycles; returning a cycle earlier than necessary is safe
        (a spurious wake is a no-op step), missing one is not.
        """
        ...


@runtime_checkable
class TrafficSource(Protocol):
    """What every traffic injector must expose to the engines.

    A source owns one stream of packets entering the network at
    ``src_node``.  Engines poll it with :meth:`packets_for_cycle` at the
    cycles :attr:`next_event_cycle` names (cycle and event engines).

    The flattened engines (``vector``, ``sharded``) replay each source on
    its own, ahead of time (:mod:`repro.simnoc.schedule`), so a source must
    be open-loop: no dependence on the network or on another source.  It
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
    import repro.simnoc.router  # noqa: F401  (registers "wormhole")
    import repro.simnoc.synthetic  # noqa: F401  (registers synthetic patterns)
    import repro.simnoc.vc_router  # noqa: F401  (registers "wormhole-vc")


# ----------------------------------------------------------------------
# router-model registry
# ----------------------------------------------------------------------
#: ``factory(node, input_keys, output_specs, config) -> RouterModel``.
RouterFactory = Callable[..., RouterModel]

#: name -> ``(factory, per_lane_buffers)``: the flow-control fact the
#: network builder sizes credits from is declared at registration, so the
#: builder never guesses it from the model's name.
ROUTER_MODELS = Registry("router model", SimulationError, _load_models)


def register_router_model(
    name: str, *, per_lane_buffers: bool = False
) -> Callable[[RouterFactory], RouterFactory]:
    """Decorator registering a router factory under ``name``.

    The factory signature is ``(node, input_keys, output_specs, config)``
    where ``output_specs`` maps downstream key to ``(rate, credits)`` and
    ``config`` is the run's :class:`~repro.simnoc.config.SimConfig`.

    Args:
        name: registry key (``SimConfig.router_model`` values).
        per_lane_buffers: True when the model buffers per virtual channel,
            sized ``config.effective_vc_depth`` per lane; False when it has
            one ``config.buffer_depth`` FIFO per physical link.  The
            builder wires downstream credits from this declaration.
    """
    return ROUTER_MODELS.register(name, lambda factory: (factory, per_lane_buffers))


def get_router_model(name: str) -> RouterFactory:
    """Resolve a router factory by name."""
    return ROUTER_MODELS.get(name)[0]


def router_model_uses_lanes(name: str) -> bool:
    """Whether the named model declared per-virtual-channel buffering."""
    return ROUTER_MODELS.get(name)[1]


#: All registered router model names, sorted.
list_router_models = ROUTER_MODELS.names


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
