"""Vector-engine specifics, the ``sharded`` alias and ``auto``.

The heavy bit-identity guarantees live in ``tests/properties``; this file
covers the engine-layer plumbing around them: registry exposure, the
one-run-per-network guard, the observables a flattened run leaves, the
``sharded`` name running ``vector`` in the calling process, and ``auto``'s
one answer.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.errors import SimulationError
from repro.graphs.topology import NoCTopology
from repro.simnoc import (
    SimConfig,
    Simulator,
    build_synthetic_network,
    list_engines,
)
from repro.simnoc.engines import VectorEngine, get_engine
from repro.simnoc.engines.auto import resolve_auto_engine
from repro.simnoc.trace import TraceRecorder
from tests.reference.object_engine import OBJECT_ENGINE
from tests.simnoc.deliveries import deliveries

#: The object-model engine is filed under ``OBJECT_ENGINE`` while this
#: module's tests run.
pytestmark = pytest.mark.usefixtures("object_engine")


def _network(rate: float, **config_kwargs):
    mesh = NoCTopology.mesh(3, 3, link_bandwidth=1600.0)
    config = SimConfig(
        warmup_cycles=100, measure_cycles=800, drain_cycles=300, **config_kwargs
    )
    return build_synthetic_network(mesh, config, "uniform", rate)


class TestRegistry:
    def test_all_four_engines_registered(self):
        assert set(list_engines()) >= {"auto", "cycle", "event", "vector"}


class TestANetworkRunsOnce:
    """A run consumes its network's sources, so a second simulator on the
    same network must fail loudly rather than report another run's state."""

    @pytest.mark.parametrize("engine", list_engines())
    def test_a_second_run_raises(self, engine):
        network = _network(0.05)
        first = Simulator(network, engine=engine).run()
        assert first == Simulator(_network(0.05), engine=OBJECT_ENGINE).run()
        with pytest.raises(SimulationError, match="freshly built"):
            Simulator(network, engine=engine).run()

    def test_a_second_run_on_another_engine_raises(self):
        network = _network(0.05)
        Simulator(network, engine=OBJECT_ENGINE).run()
        with pytest.raises(SimulationError, match="freshly built"):
            Simulator(network, engine="vector").run()


class TestVectorEngineObservables:
    @pytest.mark.parametrize("no_jit", ("", "1"))
    def test_leaves_what_the_cycle_engine_leaves(self, monkeypatch, no_jit):
        """The report builder reads the deliveries and the per-port flit
        counts as columns, which the object model leaves too.  Both rungs of
        a vector run must leave the reports, deliveries and flit traces of
        the object model."""
        monkeypatch.setenv("REPRO_NO_JIT", no_jit)
        runs = {}
        for engine in ("vector", OBJECT_ENGINE):
            recorder = TraceRecorder(max_events=10**6)
            sim = Simulator(_network(0.1, seed=3), trace=recorder, engine=engine)
            report = sim.run()
            # (node, packet id, ...) per delivery: per-NI order included.
            runs[engine] = (report, deliveries(sim), recorder.events)
            assert sim.packet_log is not None
        assert runs["vector"] == runs[OBJECT_ENGINE]
        assert sum(runs["vector"][0].link_flits.values()) > 0


@pytest.fixture
def no_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])


class TestShardedStartMethod:
    """``sharded`` names the vector engine and needs no ``fork``: the
    multi-process engine of that name was removed, and its ``shards`` /
    ``partitioner`` options are accepted and read by nothing."""

    def test_one_shard_runs_without_fork(self, no_fork):
        report = Simulator(_network(0.1, seed=3), engine="sharded", shards=1).run()
        reference = Simulator(_network(0.1, seed=3), engine=OBJECT_ENGINE).run()
        assert report == reference
        assert not multiprocessing.active_children()

    def test_sharded_runs_vector_in_process_without_fork(self, no_fork):
        assert isinstance(get_engine("sharded"), VectorEngine)
        runs = {}
        for engine, options in (
            ("sharded", dict(shards=2, partitioner="round-robin")),
            ("vector", {}),
        ):
            recorder = TraceRecorder(max_events=10**6)
            sim = Simulator(
                _network(0.1, seed=3), trace=recorder, engine=engine, **options
            )
            runs[engine] = (sim.run(), deliveries(sim), recorder.events)
            assert not multiprocessing.active_children()
        assert runs["sharded"] == runs["vector"]


class TestAutoPolicy:
    @pytest.mark.parametrize("rate", (0.0005, 0.30))
    @pytest.mark.parametrize("no_jit", ("", "1"))
    @pytest.mark.parametrize(
        "model", ({}, {"num_vcs": 2}, {"router_model": "wormhole-vc"})
    )
    def test_every_config_picks_vector_at_any_load(
        self, monkeypatch, rate, no_jit, model
    ):
        """No load threshold, no dependence on the JIT rung and no router
        model left to fall back for: the cycle engine is never
        auto-selected (PERFORMANCE.md, engine ladder)."""
        monkeypatch.setenv("REPRO_NO_JIT", no_jit)
        assert resolve_auto_engine(_network(rate, **model)) == "vector"

    def test_auto_runs_end_to_end_at_high_load(self):
        report = Simulator(_network(0.25), engine="auto").run()
        assert report.packets_delivered > 0
