"""Optional flit-level event tracing for the simulator.

A :class:`TraceRecorder` captures every flit movement (which router, which
output, which packet/flit, which cycle) the way a SystemC waveform dump
would, bounded by a configurable event cap so long runs cannot exhaust
memory.  Traces export to CSV-ish text for offline inspection and support
simple queries (per-packet journey, per-link activity) used when debugging
contention or suspected deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.simnoc.config import LOCAL
from repro.simnoc.packet import Flit


@dataclass(frozen=True)
class TraceEvent:
    """One flit hop: ``packet/flit`` left ``node`` toward ``to_key``."""

    cycle: int
    node: int
    to_key: int  # downstream node id, or LOCAL for ejection
    packet_id: int
    flit_sequence: int

    def render(self) -> str:
        target = "EJECT" if self.to_key == LOCAL else f"n{self.to_key}"
        return (
            f"{self.cycle:>8}  n{self.node:<3} -> {target:<6} "
            f"p{self.packet_id}#{self.flit_sequence}"
        )


@dataclass
class TraceRecorder:
    """Bounded recorder of :class:`TraceEvent` items.

    Args:
        max_events: hard cap; recording silently stops once reached (the
            ``truncated`` flag says so), keeping traces safe on long runs.
    """

    max_events: int = 100_000
    events: list[TraceEvent] = field(default_factory=list)
    truncated: bool = False

    def __post_init__(self) -> None:
        if self.max_events < 1:
            raise SimulationError(f"max_events must be >= 1, got {self.max_events}")

    def record(self, from_node: int, to_key: int, flit: Flit, cycle: int) -> None:
        """Capture one flit movement (simulator hook)."""
        if len(self.events) >= self.max_events:
            self.truncated = True
            return
        self.events.append(
            TraceEvent(
                cycle=cycle,
                node=from_node,
                to_key=to_key,
                packet_id=flit.packet.packet_id,
                flit_sequence=flit.sequence,
            )
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def packet_journey(self, packet_id: int) -> list[TraceEvent]:
        """All events of one packet, in time order."""
        return sorted(
            (event for event in self.events if event.packet_id == packet_id),
            key=lambda event: (event.cycle, event.flit_sequence),
        )

    def link_activity(self, src: int, dst: int) -> list[TraceEvent]:
        """All events crossing the directed link ``src -> dst``."""
        return [
            event
            for event in self.events
            if event.node == src and event.to_key == dst
        ]

    def busiest_link(self) -> tuple[int, int] | None:
        """The physical link with the most recorded flit crossings."""
        counts: dict[tuple[int, int], int] = {}
        for event in self.events:
            if event.to_key == LOCAL:
                continue
            key = (event.node, event.to_key)
            counts[key] = counts.get(key, 0) + 1
        if not counts:
            return None
        return max(counts, key=lambda key: (counts[key], -key[0], -key[1]))

    def render(self, limit: int | None = None) -> str:
        """Text dump: header plus one line per event (optionally capped)."""
        chosen = self.events if limit is None else self.events[:limit]
        lines = ["   cycle  hop             flit"]
        lines.extend(event.render() for event in chosen)
        if self.truncated:
            lines.append(f"... truncated at {self.max_events} events")
        return "\n".join(lines) + "\n"
