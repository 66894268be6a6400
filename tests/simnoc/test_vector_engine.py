"""Vector-engine specifics, the sharded start-method guard and ``auto``.

The heavy bit-identity guarantees live in ``tests/properties``; this file
covers the engine-layer plumbing around them: registry exposure, the
one-run-per-network guard, the observables a flattened run leaves, which
shard counts need ``fork``, and ``auto``'s one answer.
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
from repro.simnoc.engines.auto import resolve_auto_engine
from repro.simnoc.trace import TraceRecorder
from tests.simnoc.deliveries import deliveries


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
    """A run consumes its network's sources (and, on the object engines,
    leaves its packets in the NIs), so a second simulator on the same
    network must fail loudly rather than report another run's state."""

    @pytest.mark.parametrize("engine", list_engines())
    def test_a_second_run_raises(self, engine):
        network = _network(0.05)
        first = Simulator(network, engine=engine, shards=2).run()
        assert first == Simulator(_network(0.05), engine="cycle").run()
        with pytest.raises(SimulationError, match="freshly built"):
            Simulator(network, engine=engine, shards=2).run()

    def test_a_second_run_on_another_engine_raises(self):
        network = _network(0.05)
        Simulator(network, engine="cycle").run()
        with pytest.raises(SimulationError, match="freshly built"):
            Simulator(network, engine="vector").run()


class TestVectorEngineObservables:
    @pytest.mark.parametrize("no_jit", ("", "1"))
    def test_leaves_what_the_cycle_engine_leaves(self, monkeypatch, no_jit):
        """The report builder reads the deliveries and the per-port flit
        counts: columns after a flattened run, the NIs and ports after an
        object-engine run.  Both rungs of a vector run must leave the
        reports, deliveries and flit traces of the cycle engine."""
        monkeypatch.setenv("REPRO_NO_JIT", no_jit)
        runs = {}
        for engine in ("vector", "cycle"):
            recorder = TraceRecorder(max_events=10**6)
            sim = Simulator(_network(0.1, seed=3), trace=recorder, engine=engine)
            report = sim.run()
            # (node, packet id, ...) per delivery: per-NI order included.
            runs[engine] = (report, deliveries(sim), recorder.events)
            assert (sim.packet_log is None) == (engine == "cycle")
        assert runs["vector"] == runs["cycle"]
        assert sum(runs["vector"][0].link_flits.values()) > 0


class TestShardedStartMethod:
    """Only a run that needs worker processes needs ``fork``."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )

    def test_two_shards_without_fork_is_a_typed_error(self, no_fork):
        sim = Simulator(_network(0.1), engine="sharded", shards=2)
        with pytest.raises(SimulationError, match="'fork' start method"):
            sim.run()

    def test_one_shard_runs_without_fork(self, no_fork):
        report = Simulator(_network(0.1, seed=3), engine="sharded", shards=1).run()
        reference = Simulator(_network(0.1, seed=3), engine="cycle").run()
        assert report == reference
        assert not multiprocessing.active_children()


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
        model left to fall back for: the event engine is never
        auto-selected (PERFORMANCE.md, engine ladder)."""
        monkeypatch.setenv("REPRO_NO_JIT", no_jit)
        assert resolve_auto_engine(_network(rate, **model)) == "vector"

    def test_auto_runs_end_to_end_at_high_load(self):
        report = Simulator(_network(0.25), engine="auto").run()
        assert report.packets_delivered > 0
