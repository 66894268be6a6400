"""The two plug-in classes: every registry is a ``Registry``, every ladder a ``Ladder``.

One parametrized test holds the four name registries to one contract
(duplicate refused with the registry's own error type, unknown name
answered with the known ones in presentation order); the rest pin the
ladders' switches — one parser for every kill switch, reasons that name
the switch that fired — and the once-per-process probe.
"""

from __future__ import annotations

import logging

import pytest

from repro.api import NmapOptions, list_mappers
from repro.api import registry as mapper_registry
from repro.api.registry import get_mapper, register_mapper
from repro.errors import ApiError, PartitionError, SimulationError
from repro.graphs.topology import NoCTopology
from repro.partition import (
    available_partitioners,
    list_partitioners,
    partition_topology,
    partitioner_availability,
    register_partitioner,
    resolve_partitioner,
)
from repro.partition import registry as partition_registry
from repro.registry import Ladder, Registry
from repro.simnoc import models
from repro.simnoc.engines import base as engine_base
from repro.simnoc.engines import jit


def _noop(*args, **kwargs):
    return None


#: kind -> (Registry, error, register an existing name, resolve, list)
REGISTRIES = {
    "engine": (
        engine_base.ENGINES,
        SimulationError,
        lambda: engine_base.register_engine("cycle")(type("Dup", (), {})),
        engine_base.get_engine,
        engine_base.list_engines,
    ),
    "traffic pattern": (
        models.TRAFFIC_PATTERNS,
        SimulationError,
        lambda: models.register_traffic_pattern("uniform")(_noop),
        models.get_traffic_pattern,
        models.list_traffic_patterns,
    ),
    "mapper": (
        mapper_registry.MAPPERS,
        ApiError,
        lambda: register_mapper("nmap", options=NmapOptions)(_noop),
        get_mapper,
        list_mappers,
    ),
    "partitioner": (
        partition_registry.PARTITIONERS,
        PartitionError,
        lambda: register_partitioner("metis")(_noop),
        partitioner_availability,
        list_partitioners,
    ),
}

#: The names that lead each listing, in this order; the rest follow sorted.
LEADING = {
    "engine": (),
    "traffic pattern": ("trace",),
    "mapper": ("nmap", "nmap-tm", "nmap-ta", "pmap", "gmap", "pbb", "annealing", "hmap"),
    "partitioner": ("metis", "greedy-edge", "round-robin"),
}

EXISTING = {
    "engine": "cycle",
    "traffic pattern": "uniform",
    "mapper": "nmap",
    "partitioner": "metis",
}


@pytest.mark.parametrize("kind", sorted(REGISTRIES))
def test_every_registry_is_one_class_with_one_contract(kind):
    registry, error, register_existing, resolve, names = REGISTRIES[kind]
    assert isinstance(registry, Registry)
    assert registry.kind == kind and registry.error is error
    known = names()
    lead = LEADING[kind]
    assert known[: len(lead)] == lead
    assert list(known[len(lead) :]) == sorted(known[len(lead) :])
    assert EXISTING[kind] in known and known == registry.names()

    with pytest.raises(error) as duplicate:
        register_existing()
    assert str(duplicate.value) == f"{kind} {EXISTING[kind]!r} is already registered"

    with pytest.raises(error) as unknown:
        resolve("no-such-name")
    assert str(unknown.value) == (
        f"unknown {kind} 'no-such-name'; known: {', '.join(known)}"
    )


def test_trace_is_listed_and_reserved_but_not_synthetic():
    with pytest.raises(SimulationError, match="already registered"):
        models.register_traffic_pattern("trace")(_noop)
    with pytest.raises(SimulationError, match="unknown traffic pattern 'trace'"):
        models.get_traffic_pattern("trace")


def test_a_removed_entry_leaves_the_listing():
    registry = Registry("widget", KeyError, lambda: None, order=("b",))
    registry.register("a")(_noop)
    registry.register("c")(_noop)
    registry.add("b", 1)
    assert registry.names() == ("b", "a", "c")
    registry.remove("b")
    assert registry.names() == ("a", "c")


# ----------------------------------------------------------------------
# ladders
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _clean_switches(monkeypatch):
    for switch in ("REPRO_NO_JIT", "REPRO_JIT", "REPRO_NO_METIS"):
        monkeypatch.delenv(switch, raising=False)


def test_both_ladders_are_one_class():
    assert isinstance(jit.LADDER, Ladder)
    assert isinstance(partition_registry.LADDER, Ladder)


@pytest.mark.parametrize("value", ["0", "false", ""])
@pytest.mark.parametrize("switch", ["REPRO_NO_JIT", "REPRO_NO_METIS"])
def test_a_switch_set_off_leaves_the_rungs_own_reason(monkeypatch, switch, value):
    own = _reasons()
    monkeypatch.setenv(switch, value)
    assert _reasons() == own
    assert not any(switch in reason for reason in own)


@pytest.mark.parametrize("value", ["1", "true", "TRUE "])
@pytest.mark.parametrize("switch", ["REPRO_NO_JIT", "REPRO_NO_METIS"])
def test_a_switch_set_on_names_itself(monkeypatch, switch, value):
    monkeypatch.setenv(switch, value)
    reasons = _reasons()
    killed = ["c"] if switch == "REPRO_NO_JIT" else ["metis"]
    for rung in killed:
        assert reasons[rung] == f"disabled by {switch}"
    for rung in set(reasons) - set(killed):
        assert "disabled" not in reasons[rung]


def _reasons() -> dict[str, str]:
    rows = jit.available_backends() + available_partitioners()
    return {row["name"]: row["reason"] for row in rows}


class TestTheReasonNamesTheSwitchThatFired:
    def test_repro_jit_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "off")
        backend, reason = jit.resolve_backend()
        assert backend is None
        assert reason == "disabled by REPRO_JIT=off"
        for row in jit.available_backends():
            assert row["reason"] == "disabled by REPRO_JIT=off"
        assert jit.warmup() == ("none", "disabled by REPRO_JIT=off")

    def test_repro_no_jit(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        backend, reason = jit.resolve_backend()
        assert backend is None
        assert reason == "disabled by REPRO_NO_JIT"
        for row in jit.available_backends():
            assert row["reason"] == "disabled by REPRO_NO_JIT"

    def test_kill_wins_over_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        monkeypatch.setenv("REPRO_JIT", "off")
        assert jit.resolve_backend() == (None, "disabled by REPRO_NO_JIT")

    def test_a_pinned_rung_says_it_was_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "py")
        backend, reason = jit.resolve_backend()
        assert backend.name == "py"
        assert reason == "pinned by REPRO_JIT=py"


class TestPartitionerRungsAreProbedOncePerProcess:
    def test_n_resolutions_build_the_metis_rung_once(self, monkeypatch):
        ladder = partition_registry.LADDER
        calls = []
        probe = ladder.probes["metis"]

        def counted():
            calls.append(1)
            return probe()

        monkeypatch.setitem(ladder.probes, "metis", counted)
        monkeypatch.setattr(ladder, "cache", {})
        mesh = NoCTopology.mesh(4, 4)
        specs = [partition_topology(mesh, 2) for _ in range(5)]
        for _ in range(5):
            resolve_partitioner("auto")
            partitioner_availability("metis")
            available_partitioners()
        assert len(calls) == 1
        assert len(set(specs)) == 1

        monkeypatch.setenv("REPRO_NO_METIS", "1")
        assert partitioner_availability("metis") == (False, "disabled by REPRO_NO_METIS")
        assert resolve_partitioner("auto")[0] == "greedy-edge"
        with pytest.raises(PartitionError, match="unavailable: disabled by REPRO_NO_METIS"):
            partition_topology(mesh, 2, "metis")
        assert len(calls) == 1


class TestLadder:
    """The class itself, over stub probes."""

    @staticmethod
    def ladder(calls, logger=None):
        def probe(value, reason):
            def run():
                calls.append(reason)
                return value, reason

            return run

        return Ladder(
            "widget",
            {"fast": probe(None, "fast is missing"), "slow": probe("S", "slow ok")},
            ("fast", "slow", "floor"),
            kill="TEST_NO_WIDGET",
            pin="TEST_WIDGET",
            logger=logger,
        )

    def test_auto_falls_through_and_warns_once(self, monkeypatch, caplog):
        monkeypatch.delenv("TEST_NO_WIDGET", raising=False)
        monkeypatch.delenv("TEST_WIDGET", raising=False)
        calls = []
        ladder = self.ladder(calls, logging.getLogger("test.widget"))
        with caplog.at_level(logging.WARNING, logger="test.widget"):
            for _ in range(3):
                assert ladder.resolve() == (
                    "slow", "S", "auto ladder (skipped: fast (fast is missing))"
                )
        assert calls == ["fast is missing", "slow ok"]
        assert [r.getMessage() for r in caplog.records] == [
            "widget auto-ladder: fast (fast is missing) unavailable, "
            "falling back to slow"
        ]

    def test_kill_leaves_the_pure_rungs(self, monkeypatch):
        monkeypatch.setenv("TEST_NO_WIDGET", "yes")
        ladder = self.ladder([])
        assert ladder.resolve() == (
            "floor",
            None,
            "auto ladder (skipped: fast (disabled by TEST_NO_WIDGET), "
            "slow (disabled by TEST_NO_WIDGET))",
        )
        assert ladder.rows()[2] == {
            "name": "floor",
            "available": True,
            "reason": "pure python, always available",
        }

    def test_pin(self, monkeypatch):
        ladder = self.ladder([])
        monkeypatch.setenv("TEST_WIDGET", "fast")
        assert ladder.resolve() == (None, None, "fast is missing")
        monkeypatch.setenv("TEST_WIDGET", "Slow")
        assert ladder.resolve() == ("slow", "S", "pinned by TEST_WIDGET=slow")
        monkeypatch.setenv("TEST_WIDGET", "gpu")
        assert ladder.resolve() == (None, None, "unknown TEST_WIDGET mode 'gpu'")
        monkeypatch.setenv("TEST_WIDGET", "auto")
        assert ladder.resolve()[0] == "slow"

    def test_nothing_available_dedupes_reasons(self, monkeypatch):
        monkeypatch.setenv("TEST_WIDGET", "off")
        probe = lambda: ("A", "a")  # noqa: E731
        ladder = Ladder(
            "widget", {"a": probe, "b": probe}, ("a", "b"), kill="X", pin="TEST_WIDGET"
        )
        assert ladder.resolve() == (None, None, "disabled by TEST_WIDGET=off")
