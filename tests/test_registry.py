"""Every registry is a ``Registry``; the JIT's switches and its build cache.

One parametrized test holds the four name registries to one contract
(duplicate refused with the registry's own error type, unknown name
answered with the known ones in presentation order); the rest pin the
kernel backends' switches — one parser for the kill switch, reasons that
name the switch that fired — and the once-per-process build.
"""

from __future__ import annotations

import pytest

from repro.api import NmapOptions, list_mappers
from repro.api import registry as mapper_registry
from repro.api.registry import get_mapper, register_mapper
from repro.errors import ApiError, PartitionError, SimulationError
from repro.partition import (
    list_partitioners,
    register_partitioner,
    resolve_partitioner,
)
from repro.partition import registry as partition_registry
from repro.registry import Registry
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
        lambda: register_partitioner("greedy-edge")(_noop),
        resolve_partitioner,
        list_partitioners,
    ),
}

#: The names that lead each listing, in this order; the rest follow sorted.
LEADING = {
    "engine": (),
    "traffic pattern": ("trace",),
    "mapper": ("nmap", "nmap-tm", "nmap-ta", "pmap", "gmap", "pbb", "annealing", "hmap"),
    "partitioner": ("greedy-edge", "round-robin"),
}

EXISTING = {
    "engine": "cycle",
    "traffic pattern": "uniform",
    "mapper": "nmap",
    "partitioner": "greedy-edge",
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
# kernel-backend switches
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _clean_switches(monkeypatch):
    for switch in ("REPRO_NO_JIT", "REPRO_JIT"):
        monkeypatch.delenv(switch, raising=False)


@pytest.mark.parametrize("value", ["0", "false", ""])
def test_a_switch_set_off_leaves_the_rungs_own_reason(monkeypatch, value):
    own = _reasons()
    monkeypatch.setenv("REPRO_NO_JIT", value)
    assert _reasons() == own
    assert not any("REPRO_NO_JIT" in reason for reason in own.values())


@pytest.mark.parametrize("value", ["1", "true", "TRUE ", " Yes", "on"])
def test_a_switch_set_on_names_itself(monkeypatch, value):
    monkeypatch.setenv("REPRO_NO_JIT", value)
    assert _reasons() == {"c": "disabled by REPRO_NO_JIT"}


def _reasons() -> dict[str, str]:
    return {row["name"]: row["reason"] for row in jit.available_backends()}


class TestTheReasonNamesTheSwitchThatFired:
    def test_repro_no_jit(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        backend, reason = jit.resolve_backend()
        assert backend is None
        assert reason == "disabled by REPRO_NO_JIT"
        for row in jit.available_backends():
            assert row["reason"] == "disabled by REPRO_NO_JIT"
        assert jit.warmup() == ("none", "disabled by REPRO_NO_JIT")

    def test_kill_wins_over_a_pin(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        monkeypatch.setenv("REPRO_JIT", "py")
        assert jit.resolve_backend() == (None, "disabled by REPRO_NO_JIT")

    def test_a_pinned_rung_says_it_was_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "py")
        backend, reason = jit.resolve_backend()
        assert backend.name == "py"
        assert reason == "pinned by REPRO_JIT=py"

    def test_a_pin_is_read_case_and_space_insensitive(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", " PY ")
        backend, reason = jit.resolve_backend()
        assert backend.name == "py"
        assert reason == "pinned by REPRO_JIT=py"

    def test_the_default_is_the_c_rung(self, monkeypatch):
        backend = jit.Backend("c", _noop, _noop)
        monkeypatch.setitem(jit.RUNGS, "c", lambda: (backend, "stub c"))
        monkeypatch.setattr(jit, "_BUILT", {})
        assert jit.resolve_backend() == (backend, "stub c")
        assert jit.warmup() == ("c", "stub c")
        monkeypatch.setenv("REPRO_JIT", "c")
        assert jit.resolve_backend() == (backend, "pinned by REPRO_JIT=c")

    def test_a_rung_that_cannot_run_gives_its_own_reason(self, monkeypatch):
        monkeypatch.setitem(jit.RUNGS, "c", lambda: (None, "no cc here"))
        monkeypatch.setattr(jit, "_BUILT", {})
        assert jit.resolve_backend() == (None, "no cc here")
        assert jit.warmup() == ("none", "no cc here")
        assert jit.available_backends() == [
            {"name": "c", "available": False, "reason": "no cc here"}
        ]
        monkeypatch.setenv("REPRO_JIT", "c")
        assert jit.resolve_backend() == (None, "no cc here")

    @pytest.mark.parametrize("mode", ["off", "auto", "numba"])
    def test_any_other_mode_is_unknown(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_JIT", mode)
        assert jit.resolve_backend() == (None, f"unknown REPRO_JIT mode {mode!r}")
        assert jit.warmup() == ("none", f"unknown REPRO_JIT mode {mode!r}")


class TestKernelRungsAreBuiltOncePerProcess:
    def test_n_resolutions_build_the_c_rung_once(self, monkeypatch):
        calls = []
        build = jit.RUNGS["c"]

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setitem(jit.RUNGS, "c", counted)
        monkeypatch.setattr(jit, "_BUILT", {})
        backends = []
        for _ in range(5):
            backends.append(jit.resolve_backend()[0])
            jit.available_backends()
            jit.warmup()
        monkeypatch.setenv("REPRO_JIT", "c")
        backends.append(jit.resolve_backend()[0])
        assert len(calls) == 1
        assert all(backend is backends[0] for backend in backends)

        monkeypatch.setenv("REPRO_NO_JIT", "1")
        assert jit.resolve_backend() == (None, "disabled by REPRO_NO_JIT")
        assert len(calls) == 1

    def test_n_pinned_resolutions_build_the_py_rung_once(self, monkeypatch):
        calls = {"c": 0, "py": 0}
        builds = dict(jit.RUNGS)

        def counted(rung):
            def build():
                calls[rung] += 1
                return builds[rung]()

            return build

        for rung in builds:
            monkeypatch.setitem(jit.RUNGS, rung, counted(rung))
        monkeypatch.setattr(jit, "_BUILT", {})
        monkeypatch.setenv("REPRO_JIT", "py")
        backends = []
        for _ in range(5):
            backends.append(jit.resolve_backend()[0])
            assert jit.warmup() == ("py", "pinned by REPRO_JIT=py")
        assert calls == {"c": 0, "py": 1}
        assert all(backend is backends[0] for backend in backends)
