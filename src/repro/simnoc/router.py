"""Input-buffered wormhole router with credit flow control.

Each router has one input port per incoming link (plus the local injection
port) and one output port per outgoing link (plus ejection).  Wormhole
switching: a head flit arbitrates for its output port; the port stays
allocated to that packet until the tail passes, so a blocked head stalls
the whole worm in place — the "domino effect" the paper blames for the
non-linear latency growth of single-path routing at low link bandwidth.

Timing model per flit and hop:

* router pipeline: a flit becomes eligible to leave ``router_delay`` cycles
  after entering the input buffer (Table 3's 7-cycle switch delay);
* link serialization: an output port holds a token bucket refilled at the
  link's rate in flits/cycle, so a 0.5 flit/cycle link moves a flit every
  other cycle;
* buffering: a flit moves only when the downstream input buffer has a free
  slot (credit-based flow control; credits return when the downstream
  buffer is popped).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.simnoc.packet import Flit, FlitKind

#: Port key for the local (core-side) injection/ejection direction.
LOCAL = -1

_HEAD = FlitKind.HEAD
_INF = float("inf")


def refill_bucket_to(port, cycle: int) -> None:
    """Apply every per-cycle token refill owed up to (and including) ``cycle``.

    Shared by every output-port implementation (``port`` needs ``tokens``,
    ``rate`` and ``last_refill``).  Replays ``min(tokens + rate, cap)`` once
    per skipped cycle rather than multiplying ``rate`` by the gap, so the
    token value is exactly what a cycle-by-cycle simulation would have
    produced (floating-point accumulation order matters); the replay stops
    as soon as the bucket saturates, since ``cap`` is a fixpoint of the
    update.  The event engine's bit-exactness rests on this function and
    :func:`bucket_tokens_ready_cycle` performing the *same* operation
    sequence — that is why there is exactly one copy of each.
    """
    pending = cycle - port.last_refill
    if pending <= 0:
        return
    port.last_refill = cycle
    rate = port.rate
    cap = rate + 1.0 if rate > 1.0 else 2.0  # max(1.0, rate) + 1.0
    tokens = port.tokens
    for _ in range(pending):
        tokens += rate
        if tokens >= cap:  # min(tokens + rate, cap) == cap
            tokens = cap
            break
    port.tokens = tokens


def bucket_tokens_ready_cycle(port, cycle: int) -> int:
    """First cycle ``>= cycle`` at which the bucket holds a whole token.

    Replays the exact per-cycle update :func:`refill_bucket_to` will
    perform (same floating-point operation sequence), so the event engine's
    prediction lands on precisely the cycle a cycle-by-cycle simulation
    would first move a flit.
    """
    cap = max(1.0, port.rate) + 1.0
    tokens = port.tokens
    ready = cycle
    while tokens < 1.0:
        tokens = min(tokens + port.rate, cap)
        ready += 1
    return ready


def resolve_next_hop(node: int, outputs: dict, flit: Flit) -> int:
    """Where ``flit``'s packet goes next from ``node`` (``LOCAL`` = eject).

    The packet carries its full source route; the hop after ``node`` is the
    next output, and arriving at the route's last node means ejection.
    Shared by every router model — routing is a property of the packet, not
    of the switch microarchitecture.

    Raises:
        SimulationError: when the route does not contain this node or
            requests a missing output port.
    """
    path = flit.packet.path
    try:
        position = path.index(node)
    except ValueError:
        raise SimulationError(
            f"packet {flit.packet.packet_id} routed through node "
            f"{node} not on its path {path}"
        ) from None
    if position == len(path) - 1:
        return LOCAL
    nxt = path[position + 1]
    if nxt not in outputs:
        raise SimulationError(
            f"node {node} has no output toward {nxt} "
            f"(packet {flit.packet.packet_id})"
        )
    return nxt


@dataclass(slots=True)
class InputPort:
    """One input FIFO of a router; ``feeder`` is the upstream output port."""

    router_node: int
    from_key: int  # upstream node id, or LOCAL
    capacity: int
    queue: deque = field(default_factory=deque)  # entries: (enter_cycle, Flit)
    feeder: "OutputPort | None" = None

    @property
    def occupancy(self) -> int:
        return len(self.queue)

    def can_accept(self, flit: Flit) -> bool:
        """Whether a push of ``flit`` would fit (the NI's backpressure probe)."""
        return len(self.queue) < self.capacity

    def push(self, flit: Flit, cycle: int) -> None:
        if len(self.queue) >= self.capacity:
            raise SimulationError(
                f"buffer overflow at node {self.router_node} port {self.from_key}"
            )
        self.queue.append((cycle, flit))


@dataclass(slots=True)
class OutputPort:
    """One output of a router, driving a link (or the ejection port).

    ``rate`` is the link bandwidth in flits/cycle; ``credits`` mirrors the
    free slots of the downstream input buffer (infinite for ejection).
    """

    router_node: int
    to_key: int  # downstream node id, or LOCAL for ejection
    rate: float
    credits: float  # float('inf') for ejection
    tokens: float = 0.0
    owner: int | None = None  # input-port key holding the wormhole
    owner_packet_id: int | None = None
    rr_pointer: int = 0
    flits_carried: int = 0
    #: Last cycle this port's token bucket was refilled (-1 = never).  Lets
    #: the active-set simulator skip idle routers entirely and catch up
    #: their refills later, bit-identically to per-cycle refilling.
    last_refill: int = -1


class Router:
    """One mesh cross-point: input buffers, output ports, wormhole logic.

    ``in_ports`` / ``out_ports`` list the port dicts' ports in sweep order.
    """

    __slots__ = (
        "node",
        "router_delay",
        "inputs",
        "input_order",
        "in_ports",
        "outputs",
        "output_order",
        "out_ports",
        "hops",
        "last_step_released",
    )

    def __init__(
        self,
        node: int,
        input_keys: list[int],
        output_specs: dict[int, tuple[float, float]],
        buffer_depth: int,
        router_delay: int,
    ) -> None:
        """
        Args:
            node: mesh node id.
            input_keys: upstream node ids (LOCAL included by the builder).
            output_specs: downstream key -> (rate flits/cycle, initial
                credits); ejection uses ``float('inf')`` credits.
            buffer_depth: input FIFO capacity in flits.
            router_delay: pipeline latency in cycles.
        """
        self.node = node
        self.router_delay = router_delay
        self.inputs: dict[int, InputPort] = {
            key: InputPort(node, key, buffer_depth) for key in input_keys
        }
        self.input_order = sorted(self.inputs)
        self.in_ports = [self.inputs[key] for key in self.input_order]
        self.outputs: dict[int, OutputPort] = {
            key: OutputPort(node, key, rate, credits)
            for key, (rate, credits) in output_specs.items()
        }
        self.output_order = sorted(self.outputs)
        self.out_ports = [self.outputs[key] for key in self.output_order]
        self.hops: dict[int, int] = {}
        #: True when the last step released an output port (a tail passed).
        #: The event engine re-wakes the router next cycle exactly then —
        #: a release is the only post-move state change that enables an
        #: action no other wake source predicts (re-arbitration of waiting
        #: heads, including the next head the tail's pop just exposed).
        self.last_step_released = False

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def next_hop_key(self, flit: Flit) -> int:
        """Where this flit's packet goes next from this node.

        Resolved by :func:`resolve_next_hop` on a packet's first lookup (so
        a routing error fires where an uncached lookup would), then cached
        until its tail leaves.
        """
        hop = self.hops.get(flit.packet.packet_id)
        if hop is None:
            hop = resolve_next_hop(self.node, self.outputs, flit)
            self.hops[flit.packet.packet_id] = hop
        return hop

    # ------------------------------------------------------------------
    # per-cycle operation
    # ------------------------------------------------------------------
    def step(self, cycle: int, deliver) -> int:
        """Advance all output ports by one cycle.

        Args:
            cycle: current cycle number.
            deliver: callback ``(from_node, to_key, flit, cycle)`` invoked
                for every flit leaving this router (the network routes it to
                the downstream input buffer or the ejection sink).

        Returns:
            Number of flits moved (the simulator's progress counter).

        A pre-pass probes each input once, and only output ports that hold
        a worm or are requested by a visible head are touched — everything
        else is skipped wholesale (skipped token refills replay bit-exactly
        on the next real touch, the same invariant that lets whole routers
        be skipped).  The flit movements are those of a scan of every port
        (``tests/reference``'s ``every_port_step``).
        """
        moved = 0
        self.last_step_released = False
        requested = self._probe_requests(cycle)
        for port in self.out_ports:
            if port.owner is None and port.to_key not in requested:
                continue
            if port.last_refill < cycle:
                refill_bucket_to(port, cycle)
            moved += self._advance_port(port, cycle, deliver, requested)
        return moved

    def _probe_requests(self, cycle: int) -> set[int]:
        """Output keys some currently visible head flit requests."""
        requested: set[int] = set()
        horizon = cycle - self.router_delay
        for port in self.in_ports:
            if not port.queue:
                continue
            enter, flit = port.queue[0]
            if enter <= horizon and flit.kind is _HEAD:
                requested.add(self.next_hop_key(flit))
        return requested

    def _arbitrate(self, port: OutputPort, cycle: int) -> InputPort | None:
        """Round-robin among inputs whose visible head requests this output."""
        in_ports = self.in_ports
        n = len(in_ports)
        horizon = cycle - self.router_delay
        index = port.rr_pointer
        for _ in range(n):
            source = in_ports[index]
            index = index + 1 if index + 1 < n else 0
            if not source.queue:
                continue
            enter, flit = source.queue[0]
            if (
                enter <= horizon
                and flit.kind is _HEAD
                and self.next_hop_key(flit) == port.to_key
            ):
                port.rr_pointer = index
                return source
        return None

    def _advance_port(
        self, port: OutputPort, cycle: int, deliver, requested: set[int]
    ) -> int:
        """Arbitrate (if free) and move the allocated worm's ready flits.

        A tail's pop may expose the next packet's head, which a later port
        may arbitrate this same cycle: its next hop joins ``requested``
        (a stale entry only costs an early refill and a lost arbitration).
        """
        if port.owner is None:
            source = self._arbitrate(port, cycle)
            if source is None:
                return 0
            port.owner = source.from_key
            port.owner_packet_id = source.queue[0][1].packet.packet_id
        else:
            source = self.inputs[port.owner]
        queue = source.queue
        feeder = source.feeder
        horizon = cycle - self.router_delay
        packet_id = port.owner_packet_id
        moved = 0
        # Links faster than one flit/cycle (rate > 1) may move several
        # flits per cycle — the token bucket provides the budget.
        while queue and port.tokens >= 1.0 and port.credits >= 1.0:
            enter, flit = queue[0]
            packet = flit.packet
            if enter > horizon or packet.packet_id != packet_id:
                break  # worm's next flit not here/ready yet
            queue.popleft()
            if feeder is not None:
                feeder.credits += 1
            port.tokens -= 1.0
            if port.credits != _INF:
                port.credits -= 1.0
            port.flits_carried += 1
            deliver(self.node, port.to_key, flit, cycle)
            moved += 1
            if flit.sequence == packet.num_flits - 1:
                port.owner = None
                port.owner_packet_id = None
                self.last_step_released = True
                self.hops.pop(packet_id, None)
                if queue:
                    enter, flit = queue[0]
                    if enter <= horizon and flit.kind is _HEAD:
                        requested.add(self.next_hop_key(flit))
                break
        return moved

    def awaits_credit(self, to_key: int) -> bool:
        """Whether a credit returned on ``to_key`` could unblock a move.

        Credits only gate moves of an *allocated* worm; arbitration ignores
        them.  The event engine uses this O(1) probe to decide whether a
        downstream pop must wake this router.
        """
        return self.outputs[to_key].owner is not None

    def buffered_flits(self) -> int:
        return sum(len(port.queue) for port in self.in_ports)

    def is_idle(self) -> bool:
        """True when stepping this router would be a no-op (modulo refill).

        No buffered flits and no allocated wormhole means no arbitration can
        succeed and no flit can move; token refills are the only skipped
        effect, and :func:`refill_bucket_to` replays those exactly when the
        router re-activates.
        """
        for port in self.in_ports:
            if port.queue:
                return False
        for port in self.out_ports:
            if port.owner is not None:
                return False
        return True

    def next_action_cycle(self, cycle: int) -> int | None:
        """Earliest cycle after ``cycle`` a step could change state by itself.

        Called by the event engine right after :meth:`step` ran at
        ``cycle``.  Only two things make a stalled router act again without
        an external event (arrival or credit return):

        * a queued flit finishing the router pipeline — its head-of-line
          visibility cycle is ``enter + router_delay``;
        * an allocated worm waiting for link tokens — the refill schedule
          is deterministic, so the cycle the bucket reaches one token is
          :func:`bucket_tokens_ready_cycle`.

        Already-visible-but-blocked heads contribute no candidate: they are
        waiting on a port release (a move in this router — the engine
        reschedules after any move), a credit, or an arrival, all of which
        generate their own wake events.
        """
        best: int | None = None
        delay = self.router_delay
        for port in self.in_ports:
            if port.queue:
                visible = port.queue[0][0] + delay
                if visible > cycle and (best is None or visible < best):
                    best = visible
        horizon = cycle - delay
        for port in self.out_ports:
            if port.owner is None or port.tokens >= 1.0 or port.credits < 1.0:
                continue
            queue = self.inputs[port.owner].queue
            if not queue:
                continue
            enter, flit = queue[0]
            if enter > horizon or flit.packet.packet_id != port.owner_packet_id:
                continue  # waiting on an arrival or the pipeline, not tokens
            ready = bucket_tokens_ready_cycle(port, cycle)
            if best is None or ready < best:
                best = ready
        return best


def build_wormhole_router(
    node: int,
    input_keys: list[int],
    output_specs: dict[int, tuple[float, float]],
    config,
) -> Router:
    """Factory for the paper's single-channel wormhole router."""
    return Router(
        node,
        input_keys,
        output_specs,
        buffer_depth=config.buffer_depth,
        router_delay=config.router_delay,
    )
