"""Simulator configuration (the knobs of Table 3 and Figure 5c)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

#: The router models a run can instantiate; ``auto`` resolves to one of the
#: other two (:attr:`SimConfig.effective_router_model`).
_ROUTER_MODEL_NAMES = ("auto", "wormhole", "wormhole-vc")

#: Port key for the local (core-side) injection/ejection direction.
LOCAL = -1

#: Cycles without any flit movement (while flits are in flight) that count
#: as a deadlock: wormhole switching over arbitrary multi-path source routes
#: is not provably deadlock-free, and a silent hang must not pass for a
#: result.
DEADLOCK_WINDOW = 50_000


@dataclass(frozen=True)
class SimConfig:
    """Global parameters of one simulation run.

    Attributes:
        clock_hz: router clock frequency; with ``flit_bytes`` it converts
            MB/s bandwidths into flits/cycle.  The default 400 MHz with
            4-byte flits makes a 1.6 GB/s link exactly 1 flit/cycle.
        flit_bytes: physical link width.
        packet_bytes: payload per packet; Table 3 uses 64 B (16 flits).
        buffer_depth: input-FIFO capacity per router port, in flits.
        router_delay: switch traversal latency in cycles (Table 3: 7).
        warmup_cycles: cycles simulated before statistics collection.
        measure_cycles: cycles over which packet latencies are recorded.
        drain_cycles: extra cycles after measurement so in-flight measured
            packets can arrive.
        mean_burst_packets: mean packets per traffic burst (bursty sources;
            1.0 disables burstiness).
        seed: RNG seed for traffic generation and split-path selection.
        num_vcs: virtual channels per physical link.  1 selects the plain
            wormhole router (the paper's model); >1 selects the VC wormhole
            router, where worms on different VCs interleave flit-by-flit on
            a shared physical link instead of blocking head-of-line.
        vc_buffer_depth: input-FIFO capacity *per virtual channel* in flits;
            None gives each VC the full ``buffer_depth``.
        router_model: ``"wormhole"`` (the paper's router), ``"wormhole-vc"``
            (its virtual-channel variant) or ``"auto"``, which picks one of
            the two from ``num_vcs``.
    """

    clock_hz: float = 400e6
    flit_bytes: int = 4
    packet_bytes: int = 64
    buffer_depth: int = 8
    router_delay: int = 7
    warmup_cycles: int = 2_000
    measure_cycles: int = 20_000
    drain_cycles: int = 5_000
    mean_burst_packets: float = 4.0
    seed: int = 1
    num_vcs: int = 1
    vc_buffer_depth: int | None = None
    router_model: str = "auto"

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise SimulationError(f"clock must be positive, got {self.clock_hz}")
        if self.flit_bytes < 1:
            raise SimulationError(f"flit width must be >= 1 byte, got {self.flit_bytes}")
        if self.packet_bytes < self.flit_bytes:
            raise SimulationError(
                f"packet ({self.packet_bytes} B) smaller than one flit "
                f"({self.flit_bytes} B)"
            )
        if self.buffer_depth < 2:
            raise SimulationError(
                f"wormhole needs buffer_depth >= 2, got {self.buffer_depth}"
            )
        if self.router_delay < 1:
            raise SimulationError(f"router delay must be >= 1, got {self.router_delay}")
        if self.mean_burst_packets < 1.0:
            raise SimulationError(
                f"mean burst size must be >= 1, got {self.mean_burst_packets}"
            )
        for name in ("warmup_cycles", "measure_cycles", "drain_cycles"):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be non-negative")
        if self.num_vcs < 1:
            raise SimulationError(f"num_vcs must be >= 1, got {self.num_vcs}")
        if self.vc_buffer_depth is not None and self.vc_buffer_depth < 2:
            raise SimulationError(
                f"wormhole needs vc_buffer_depth >= 2, got {self.vc_buffer_depth}"
            )
        if self.router_model not in _ROUTER_MODEL_NAMES:
            raise SimulationError(
                f"unknown router model {self.router_model!r}; known: "
                f"{', '.join(_ROUTER_MODEL_NAMES)}"
            )

    @property
    def effective_router_model(self) -> str:
        """The router model this run instantiates (``"auto"`` resolved)."""
        if self.router_model != "auto":
            return self.router_model
        return "wormhole-vc" if self.num_vcs > 1 else "wormhole"

    @property
    def effective_vc_depth(self) -> int:
        """Per-VC input FIFO capacity in flits."""
        return self.vc_buffer_depth if self.vc_buffer_depth is not None else self.buffer_depth

    @property
    def flits_per_packet(self) -> int:
        """Payload flits per packet (header bits ride in the head flit)."""
        return max(1, -(-self.packet_bytes // self.flit_bytes))

    def mbps_to_flits_per_cycle(self, mbps: float) -> float:
        """Convert a bandwidth in MB/s into flits per clock cycle."""
        return (mbps * 1e6) / (self.flit_bytes * self.clock_hz)

    def gbps_link_rate(self, gb_per_s: float) -> float:
        """Convert a link bandwidth in GB/s into flits per cycle."""
        return (gb_per_s * 1e9) / (self.flit_bytes * self.clock_hz)

    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.measure_cycles + self.drain_cycles
