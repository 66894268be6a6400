"""The serializable fault scenario: :class:`FaultSpec`.

A fault spec names what is broken in the fabric — failed (undirected)
links, failed routers, degraded-bandwidth links — plus an optional
deterministic *random ensemble* component: ``random_link_failures`` extra
link failures drawn from ``fault_seed`` via :func:`repro.seeding
.derive_seed`, so resilience sweeps can enumerate seeded scenarios without
shipping explicit link lists.

Like every payload of the typed API it is a :class:`repro.codec.Payload`
with a lossless ``to_dict``/``from_dict`` JSON round-trip; content errors
raise :class:`~repro.errors.ApiError` at *build* time (malformed values) or
:class:`~repro.errors.FaultError` at *apply* time (the spec names links or
routers the concrete topology does not have, or asks for more random
failures than there are candidate links).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.codec import Payload
from repro.errors import ApiError, FaultError
from repro.seeding import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.topology import NoCTopology

#: Stable stream tag separating random-fault draws from every other
#: derive_seed consumer (traffic, injectors, batch retries).
FAULT_STREAM = 0xFA177


def _link(a: int, b: int, what: str) -> tuple[int, int]:
    """An undirected link as a canonical ``(low, high)`` node pair."""
    if a == b:
        raise ApiError(f"{what} cannot connect node {a} to itself")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class FaultSpec(Payload):
    """What is broken: the serializable description of one fault scenario.

    Attributes:
        failed_links: undirected node pairs whose link is gone (both
            directed channels fail — a broken wire kills the credit loop
            too).  Stored canonically as sorted, deduplicated
            ``(low, high)`` pairs.
        failed_routers: node ids whose router is dead; every incident link
            fails and nothing may be placed there.
        degraded_links: ``(a, b, factor)`` triples scaling an undirected
            link's bandwidth by ``factor`` in ``(0, 1)`` — partial faults.
            A link cannot be both failed and degraded.
        random_link_failures: number of *additional* link failures drawn
            deterministically from ``fault_seed`` when the spec is resolved
            against a concrete topology (see :meth:`resolve`).
        fault_seed: seed for the random draws; every draw derives from it
            via :func:`repro.seeding.derive_seed`, so ensembles are a pure
            function of the spec — independent of process or worker count.
    """

    NOUN = "fault"

    failed_links: tuple[tuple[int, int], ...] = field(default=(), metadata={"ge": 0})
    failed_routers: tuple[int, ...] = field(default=(), metadata={"ge": 0})
    degraded_links: tuple[tuple[int, int, float], ...] = field(default=(), metadata={"ge": 0})
    random_link_failures: int = field(default=0, metadata={"ge": 0})
    fault_seed: int = 0

    def validate(self) -> None:
        links = tuple(sorted({_link(a, b, "failed link") for a, b in self.failed_links}))
        degraded: dict[tuple[int, int], float] = {}
        for a, b, factor in self.degraded_links:
            pair = _link(a, b, "degraded link")
            where = f"link {pair[0]}-{pair[1]}"
            if not (0.0 < factor < 1.0):
                raise ApiError(f"degrade factor must be in (0, 1), got {factor} for {where}")
            if degraded.setdefault(pair, float(factor)) != float(factor):
                raise ApiError(f"{where} degraded twice with different factors")
        overlap = set(degraded) & set(links)
        if overlap:
            a, b = min(overlap)
            raise ApiError(f"link {a}-{b} cannot be both failed and degraded")
        object.__setattr__(self, "failed_links", links)
        object.__setattr__(self, "failed_routers", tuple(sorted(set(self.failed_routers))))
        object.__setattr__(
            self,
            "degraded_links",
            tuple((a, b, degraded[(a, b)]) for a, b in sorted(degraded)),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the spec breaks nothing (the pristine scenario)."""
        return not (
            self.failed_links
            or self.failed_routers
            or self.degraded_links
            or self.random_link_failures
        )

    def describe(self) -> str:
        """A short human-readable summary for logs and CLI output."""
        parts: list[str] = []
        if self.failed_links:
            parts.append(
                "failed links "
                + ",".join(f"{a}-{b}" for a, b in self.failed_links)
            )
        if self.failed_routers:
            parts.append(
                "failed routers " + ",".join(str(n) for n in self.failed_routers)
            )
        if self.degraded_links:
            parts.append(
                "degraded "
                + ",".join(f"{a}-{b}x{f:g}" for a, b, f in self.degraded_links)
            )
        if self.random_link_failures:
            parts.append(
                f"{self.random_link_failures} random link failure(s) "
                f"@ seed {self.fault_seed}"
            )
        return "; ".join(parts) if parts else "no faults"

    # ------------------------------------------------------------------
    # resolution and application
    # ------------------------------------------------------------------
    def resolve(self, topology: "NoCTopology") -> "FaultSpec":
        """Expand the random component into concrete failed links.

        Draws ``random_link_failures`` distinct undirected links from the
        topology's surviving candidates (links not already failed, degraded
        or incident to a failed router), each index derived from
        ``fault_seed`` via :func:`~repro.seeding.derive_seed` — stable
        across processes and Python versions.

        Raises:
            FaultError: when fewer candidate links exist than failures asked.
        """
        if self.random_link_failures == 0:
            return self
        excluded = set(self.failed_links) | {
            (a, b) for a, b, _ in self.degraded_links
        }
        failed_routers = set(self.failed_routers)
        candidates = sorted({
            (min(u, v), max(u, v))
            for u, v in topology.link_keys()
            if u not in failed_routers and v not in failed_routers
        } - excluded)
        if self.random_link_failures > len(candidates):
            raise FaultError(
                f"cannot draw {self.random_link_failures} random link "
                f"failures: only {len(candidates)} candidate links in "
                f"{topology!r}"
            )
        drawn: list[tuple[int, int]] = []
        for draw in range(self.random_link_failures):
            index = derive_seed(self.fault_seed, FAULT_STREAM, draw) % len(candidates)
            drawn.append(candidates.pop(index))
        return replace(
            self,
            failed_links=tuple(sorted(self.failed_links + tuple(drawn))),
            random_link_failures=0,
        )

    def apply(self, topology: "NoCTopology") -> "NoCTopology":
        """The degraded topology view this scenario produces.

        Resolves random failures first, then fails routers, then links,
        then scales degraded links' bandwidth (both directions).  A link
        listed both explicitly and implicitly (incident to a failed router)
        fails once — idempotent, not an error.

        Raises:
            FaultError: when the spec names links or routers the topology
                does not have, or degrades a link that is failed.
        """
        if self.is_empty:
            return topology
        spec = self.resolve(topology)

        for node in spec.failed_routers:
            if not (0 <= node < topology.num_nodes):
                raise FaultError(f"failed router {node} outside {topology!r}")
        for a, b in spec.failed_links:
            if not (topology.has_link(a, b) or topology.has_link(b, a)):
                raise FaultError(f"no link between {a} and {b} in {topology!r}")
        for a, b, _factor in spec.degraded_links:
            if not (topology.has_link(a, b) or topology.has_link(b, a)):
                raise FaultError(f"no link between {a} and {b} in {topology!r}")

        masked = topology
        if spec.failed_routers:
            masked = masked.with_failed_routers(spec.failed_routers)
        surviving = [
            (a, b)
            for a, b in spec.failed_links
            if masked.has_link(a, b) or masked.has_link(b, a)
        ]
        # Always take the masking path (even when router failures already
        # removed every listed link) so the result is a degraded view with
        # BFS distances whenever any fault is present.
        masked = masked.with_failed_links(surviving)
        for a, b, factor in spec.degraded_links:
            if not (masked.has_link(a, b) or masked.has_link(b, a)):
                raise FaultError(
                    f"cannot degrade link {a}-{b}: it is failed in this scenario"
                )
            for src, dst in ((a, b), (b, a)):
                if masked.has_link(src, dst):
                    masked.set_link_bandwidth(
                        src, dst, masked.link_bandwidth(src, dst) * factor
                    )
        return masked

    # ------------------------------------------------------------------
    # CLI parsing helpers
    # ------------------------------------------------------------------
    @staticmethod
    def parse_link(text: str) -> tuple[int, int]:
        """Parse a CLI link spec like ``"3-4"`` into a node pair."""
        a_str, sep, b_str = text.strip().partition("-")
        try:
            if not sep:
                raise ValueError
            a, b = int(a_str), int(b_str)
        except ValueError:
            raise ApiError(
                f"link spec must look like '3-4', got {text!r}"
            ) from None
        return _link(a, b, "failed link")

    @staticmethod
    def parse_degraded(text: str) -> tuple[int, int, float]:
        """Parse a CLI degrade spec like ``"3-4:0.5"``."""
        link_str, sep, factor_str = text.strip().partition(":")
        if not sep:
            raise ApiError(
                f"degrade spec must look like '3-4:0.5', got {text!r}"
            )
        a, b = FaultSpec.parse_link(link_str)
        try:
            factor = float(factor_str)
        except ValueError:
            raise ApiError(
                f"degrade factor must be a number, got {factor_str!r}"
            ) from None
        return (a, b, factor)
