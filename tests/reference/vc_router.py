"""Wormhole router with virtual channels (the richer router model).

The paper's router (:class:`tests.reference.router.Router`) blocks head-of-line:
one stalled worm freezes the whole physical link — the "domino effect"
behind the non-linear latency growth of single-path routing.  Virtual
channels are the classical fix: each physical link multiplexes ``num_vcs``
lanes, every lane with its own input FIFO and credit loop, and the link's
serialization budget round-robins across lanes flit by flit.  A worm blocked
on VC0 no longer stalls traffic riding VC1 over the same wires.

Model choices (kept deliberately simple and deterministic):

* **Per-flow VC assignment** — the injecting NI pins each packet to
  ``commodity_index % num_vcs`` for its whole journey.  Flows never change
  lanes mid-flight, which preserves per-flow in-order delivery (packets of
  one flow cannot overtake each other on a different lane).
* **Per-VC wormhole allocation** — a head flit allocates (output port,
  its VC) and holds it until the tail passes, exactly like the base router
  but per lane.
* **Shared link budget** — one token bucket per output port (the physical
  link's flits/cycle), arbitrated round-robin across VCs, so adding VCs
  never creates bandwidth out of thin air.

Timing (pipeline delay, token-bucket serialization, credit flow control)
matches the base router so the two models are comparable knob-for-knob.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.simnoc.packet import Flit
from tests.reference.router import is_last_flit, refill_bucket_to, resolve_next_hop


@dataclass(slots=True)
class VCInputPort:
    """One input of a VC router: ``num_vcs`` FIFOs sharing the physical link."""

    router_node: int
    from_key: int  # upstream node id, or LOCAL
    num_vcs: int
    vc_capacity: int
    queues: list[deque] = field(default_factory=list)  # per VC: (enter, Flit)
    feeder: "VCOutputPort | None" = None

    def __post_init__(self) -> None:
        if not self.queues:
            self.queues = [deque() for _ in range(self.num_vcs)]

    @property
    def occupancy(self) -> int:
        return sum(len(queue) for queue in self.queues)

    def can_accept(self, flit: Flit) -> bool:
        """Whether the flit's lane has a free slot (NI backpressure probe)."""
        return len(self.queues[flit.packet.vc]) < self.vc_capacity

    def push(self, flit: Flit, cycle: int) -> None:
        queue = self.queues[flit.packet.vc]
        if len(queue) >= self.vc_capacity:
            raise SimulationError(
                f"VC buffer overflow at node {self.router_node} port "
                f"{self.from_key} vc {flit.packet.vc}"
            )
        queue.append((cycle, flit))

    def visible_head(self, vc: int, cycle: int, router_delay: int) -> Flit | None:
        """The lane's head-of-line flit if it cleared the router pipeline."""
        queue = self.queues[vc]
        if not queue:
            return None
        enter_cycle, flit = queue[0]
        if cycle - enter_cycle >= router_delay:
            return flit
        return None

    def pop(self, vc: int) -> Flit:
        _enter, flit = self.queues[vc].popleft()
        if self.feeder is not None:
            self.feeder.vc_credits[vc] += 1
        return flit


@dataclass(slots=True)
class VCOutputPort:
    """One output of a VC router: shared token bucket, per-VC allocation state."""

    router_node: int
    to_key: int  # downstream node id, or LOCAL for ejection
    rate: float
    num_vcs: int
    vc_credits: list[float]  # float('inf') per lane for ejection
    tokens: float = 0.0
    vc_owner: list[int | None] = field(default_factory=list)
    vc_owner_packet: list[int | None] = field(default_factory=list)
    vc_rr_inputs: list[int] = field(default_factory=list)  # arbitration per VC
    vc_rr: int = 0  # flit-interleaving pointer across VCs
    flits_carried: int = 0
    last_refill: int = -1

    def __post_init__(self) -> None:
        if not self.vc_owner:
            self.vc_owner = [None] * self.num_vcs
            self.vc_owner_packet = [None] * self.num_vcs
            self.vc_rr_inputs = [0] * self.num_vcs

    def refill_to(self, cycle: int) -> None:
        """Apply every refill owed up to ``cycle`` (:func:`refill_bucket_to`)."""
        refill_bucket_to(self, cycle)


class VCRouter:
    """Input-buffered wormhole router with ``num_vcs`` virtual channels."""

    __slots__ = (
        "node",
        "num_vcs",
        "router_delay",
        "inputs",
        "input_order",
        "outputs",
        "output_order",
    )

    def __init__(
        self,
        node: int,
        input_keys: list[int],
        output_specs: dict[int, tuple[float, float]],
        num_vcs: int,
        vc_buffer_depth: int,
        router_delay: int,
    ) -> None:
        """
        Args:
            node: mesh node id.
            input_keys: upstream node ids (LOCAL included by the builder).
            output_specs: downstream key -> (rate flits/cycle, initial
                credits *per VC*); ejection uses ``float('inf')``.
            num_vcs: virtual channels per physical link.
            vc_buffer_depth: input FIFO capacity per VC, in flits.
            router_delay: pipeline latency in cycles.
        """
        if num_vcs < 1:
            raise SimulationError(f"num_vcs must be >= 1, got {num_vcs}")
        self.node = node
        self.num_vcs = num_vcs
        self.router_delay = router_delay
        self.inputs: dict[int, VCInputPort] = {
            key: VCInputPort(node, key, num_vcs, vc_buffer_depth)
            for key in input_keys
        }
        self.input_order = sorted(self.inputs)
        self.outputs: dict[int, VCOutputPort] = {
            key: VCOutputPort(node, key, rate, num_vcs, [credits] * num_vcs)
            for key, (rate, credits) in output_specs.items()
        }
        self.output_order = sorted(self.outputs)

    def next_hop_key(self, flit: Flit) -> int:
        """Where this flit's packet goes next from this node."""
        return resolve_next_hop(self.node, self.outputs, flit)

    # ------------------------------------------------------------------
    # per-cycle operation
    # ------------------------------------------------------------------
    def _arbitrate(self, port: VCOutputPort, vc: int, cycle: int) -> int | None:
        """Round-robin among inputs whose lane-``vc`` head requests this port."""
        n = len(self.input_order)
        for offset in range(n):
            index = (port.vc_rr_inputs[vc] + offset) % n
            key = self.input_order[index]
            flit = self.inputs[key].visible_head(vc, cycle, self.router_delay)
            if flit is None or not flit.is_head:
                continue
            if self.next_hop_key(flit) == port.to_key:
                port.vc_rr_inputs[vc] = (index + 1) % n
                return key
        return None

    def _movable_flit(self, port: VCOutputPort, vc: int, cycle: int) -> Flit | None:
        """The lane's next flit if its worm can cross the switch right now."""
        owner = port.vc_owner[vc]
        if owner is None or port.vc_credits[vc] < 1.0:
            return None
        flit = self.inputs[owner].visible_head(vc, cycle, self.router_delay)
        if flit is None or flit.packet.packet_id != port.vc_owner_packet[vc]:
            return None
        return flit

    def step(self, cycle: int, deliver) -> int:
        """Advance all output ports by one cycle (same contract as Router).

        A pre-pass mirroring the base router's names the (output, vc) pairs
        a visible lane head could arbitrate for; untouched ports are skipped
        wholesale (refills replay bit-exactly later).  The flit movements
        are those of a scan of every port and lane (``tests/reference``).
        """
        moved = 0
        requested = self._probe_requests(cycle)
        for out_key in self.output_order:
            port = self.outputs[out_key]
            wanted = requested.get(out_key)
            if wanted is None and all(owner is None for owner in port.vc_owner):
                continue
            port.refill_to(cycle)
            advanced = self._advance_port(
                port, sorted(wanted) if wanted is not None else (), cycle, deliver
            )
            if advanced:
                moved += advanced
                # Pops may expose new lane heads that later-ordered
                # ports would arbitrate this same cycle (see Router).
                requested = self._probe_requests(cycle)
        return moved

    def _probe_requests(self, cycle: int) -> dict[int, set[int]]:
        """(output key -> lanes) some currently visible lane head requests."""
        requested: dict[int, set[int]] = {}
        for key in self.input_order:
            port_in = self.inputs[key]
            for vc in range(self.num_vcs):
                flit = port_in.visible_head(vc, cycle, self.router_delay)
                if flit is not None and flit.is_head:
                    requested.setdefault(self.next_hop_key(flit), set()).add(vc)
        return requested

    def _advance_port(self, port: VCOutputPort, lanes, cycle: int, deliver) -> int:
        """Allocate free lanes in ``lanes``, then move ready flits."""
        moved = 0
        # Lane allocation: every free lane arbitrates independently.
        for vc in lanes:
            if port.vc_owner[vc] is not None:
                continue
            winner = self._arbitrate(port, vc, cycle)
            if winner is None:
                continue
            port.vc_owner[vc] = winner
            head = self.inputs[winner].visible_head(vc, cycle, self.router_delay)
            assert head is not None
            port.vc_owner_packet[vc] = head.packet.packet_id
        # Switch traversal: the physical link's token budget is shared,
        # round-robinned across lanes flit by flit.
        while port.tokens >= 1.0:
            progressed = False
            for offset in range(self.num_vcs):
                vc = (port.vc_rr + offset) % self.num_vcs
                flit = self._movable_flit(port, vc, cycle)
                if flit is None:
                    continue
                if self.next_hop_key(flit) != port.to_key:  # pragma: no cover
                    raise SimulationError(
                        f"worm of packet {flit.packet.packet_id} changed direction"
                    )
                self.inputs[port.vc_owner[vc]].pop(vc)
                port.tokens -= 1.0
                if port.vc_credits[vc] != float("inf"):
                    port.vc_credits[vc] -= 1.0
                port.flits_carried += 1
                deliver(self.node, port.to_key, flit, cycle)
                moved += 1
                if is_last_flit(flit):
                    port.vc_owner[vc] = None
                    port.vc_owner_packet[vc] = None
                port.vc_rr = (vc + 1) % self.num_vcs
                progressed = True
                break
            if not progressed:
                break
        return moved

    def buffered_flits(self) -> int:
        return sum(port.occupancy for port in self.inputs.values())

    def is_idle(self) -> bool:
        """True when stepping would be a no-op (modulo token refills)."""
        for port in self.inputs.values():
            if port.occupancy:
                return False
        for port in self.outputs.values():
            if any(owner is not None for owner in port.vc_owner):
                return False
        return True


def build_vc_router(
    node: int,
    input_keys: list[int],
    output_specs: dict[int, tuple[float, float]],
    config,
) -> VCRouter:
    """Factory for the virtual-channel wormhole router."""
    return VCRouter(
        node,
        input_keys,
        output_specs,
        num_vcs=config.num_vcs,
        vc_buffer_depth=config.effective_vc_depth,
        router_delay=config.router_delay,
    )
