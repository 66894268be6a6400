"""Event and vector engines == cycle engine, for every scenario we ship.

The contract (ARCHITECTURE.md): engines differ only in how simulated time
advances — never in what happens.  For identical inputs, the event-driven
and structure-of-arrays vector engines must produce *identical* reports to
the cycle-accurate reference: same delivered-flit counts, same per-flow
latency statistics (down to the histogram), same link utilization, same
packet totals.  Plain ``==`` on every field is the right assertion; any
tolerance would hide a scheduling divergence.

Scenarios cover the seed's workloads (VOPD mesh, DSP slow-link mesh, torus)
plus everything the model/engine split made pluggable: synthetic traffic
patterns, the VC wormhole router — and, because the vector engine exists
precisely for saturation, a dedicated injection-rate matrix below, at and
above the saturation knee.  The cycle reference itself is held to the
seed's full-scan loop (``tests/reference``): reports, flit traces and the
deadlock exit.
"""

from __future__ import annotations

import multiprocessing
import re

import pytest

from repro.apps import vopd
from repro.apps.dsp import dsp_filter, dsp_mesh
from repro.errors import SimulationError
from repro.graphs.commodities import build_commodities
from repro.graphs.random_graphs import random_core_graph
from repro.graphs.topology import NoCTopology
from repro.mapping.nmap import nmap_single_path
from repro.routing.min_path import min_path_routing
from repro.simnoc import SimConfig, Simulator, build_network, build_synthetic_network
from repro.simnoc.engines.flat_kernel import MAX_KERNEL_VCS
from repro.simnoc.trace import TraceRecorder
from tests.reference import every_port_step, seed_cycle_loop

#: The fast backends, each pinned against the cycle reference.
FAST_ENGINES = ("event", "vector")


def assert_reports_identical(fast, reference):
    """Every statistic of the two reports must match exactly."""
    assert fast.stats == reference.stats
    assert fast.packets_created == reference.packets_created
    assert fast.packets_delivered == reference.packets_delivered
    assert fast.per_commodity_latency == reference.per_commodity_latency
    assert fast.per_commodity_jitter == reference.per_commodity_jitter
    assert fast.per_commodity_latency_std == reference.per_commodity_latency_std
    assert fast.per_flow == reference.per_flow
    assert fast.link_utilization == reference.link_utilization
    assert fast.link_flits == reference.link_flits
    assert fast.cycles == reference.cycles


def _trace_setup(app, mesh, **config_kwargs):
    mapping = nmap_single_path(app, mesh).mapping
    commodities = build_commodities(app, mapping)
    routing = min_path_routing(mesh, commodities)
    config = SimConfig(**config_kwargs)
    return mesh, commodities, routing, config


class TestTraceTrafficEquivalence:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("bandwidth_scale,burst", [(0.05, 1.0), (0.5, 3.0)])
    def test_vopd_mesh(self, engine, bandwidth_scale, burst):
        app = vopd()
        mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
        mesh, commodities, routing, config = _trace_setup(
            app,
            mesh,
            warmup_cycles=500,
            measure_cycles=4_000,
            drain_cycles=500,
            seed=13,
            mean_burst_packets=burst,
        )

        def run(name):
            network = build_network(
                mesh, commodities, routing, config, bandwidth_scale=bandwidth_scale
            )
            return Simulator(network, engine=name).run()

        assert_reports_identical(run(engine), run("cycle"))

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("bandwidth_scale", [0.05, 0.3, 1.0])
    def test_dsp_slow_links(self, engine, bandwidth_scale):
        """The paper's DSP fabric: 2x3 mesh, sub-flit/cycle links."""
        mesh, commodities, routing, config = _trace_setup(
            dsp_filter(),
            dsp_mesh(link_bandwidth=500.0),
            warmup_cycles=500,
            measure_cycles=6_000,
            drain_cycles=500,
            seed=3,
        )

        def run(name):
            network = build_network(
                mesh, commodities, routing, config, bandwidth_scale=bandwidth_scale
            )
            return Simulator(network, engine=name).run()

        assert_reports_identical(run(engine), run("cycle"))

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_torus(self, engine):
        app = random_core_graph(12, seed=3)
        mesh = NoCTopology.torus_grid(4, 4, link_bandwidth=app.total_bandwidth())
        mesh, commodities, routing, config = _trace_setup(
            app,
            mesh,
            warmup_cycles=500,
            measure_cycles=4_000,
            drain_cycles=500,
            seed=5,
            mean_burst_packets=2.0,
        )

        def run(name):
            network = build_network(mesh, commodities, routing, config)
            return Simulator(network, engine=name).run()

        assert_reports_identical(run(engine), run("cycle"))

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_fast_engines_match_seed_reference_loop(self, engine):
        """Not only the cycle engine: each fast engine == the seed's loop."""
        app = dsp_filter()
        mesh, commodities, routing, config = _trace_setup(
            app,
            dsp_mesh(link_bandwidth=500.0),
            warmup_cycles=500,
            measure_cycles=6_000,
            drain_cycles=500,
            seed=3,
        )

        def network():
            return build_network(
                mesh, commodities, routing, config, bandwidth_scale=0.2
            )

        assert_reports_identical(
            Simulator(network(), engine=engine).run(),
            seed_cycle_loop(Simulator(network())),
        )

    @pytest.mark.parametrize("engine", FAST_ENGINES + ("seed-loop",))
    def test_flit_traces_identical(self, engine):
        """Not just aggregates: the exact flit-movement sequence matches —
        the fast engines' the cycle engine's, and the cycle engine's the
        seed loop's."""
        app = vopd()
        mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
        mesh, commodities, routing, config = _trace_setup(
            app,
            mesh,
            warmup_cycles=200,
            measure_cycles=2_000,
            drain_cycles=300,
            seed=7,
            mean_burst_packets=2.0,
        )

        def run(name):
            network = build_network(
                mesh, commodities, routing, config, bandwidth_scale=0.4
            )
            recorder = TraceRecorder(max_events=10**6)
            if name == "seed-loop":
                seed_cycle_loop(Simulator(network, trace=recorder))
            else:
                Simulator(network, trace=recorder, engine=name).run()
            return recorder.events

        assert run(engine) == run("cycle")


class TestSyntheticTrafficEquivalence:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("pattern", ["uniform", "transpose", "onoff"])
    def test_patterns_on_mesh(self, engine, pattern):
        mesh = NoCTopology.mesh(4, 4, link_bandwidth=800.0)
        config = SimConfig(
            warmup_cycles=300, measure_cycles=3_000, drain_cycles=500, seed=11
        )

        def run(name):
            network = build_synthetic_network(mesh, config, pattern, 0.08)
            return Simulator(network, engine=name).run()

        assert_reports_identical(run(engine), run("cycle"))

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_uniform_near_saturation(self, engine):
        """High load exercises contention, backpressure and credit stalls."""
        mesh = NoCTopology.mesh(3, 3, link_bandwidth=800.0)
        config = SimConfig(
            warmup_cycles=300, measure_cycles=3_000, drain_cycles=1_000, seed=2
        )

        def run(name):
            network = build_synthetic_network(mesh, config, "uniform", 0.3)
            return Simulator(network, engine=name).run()

        assert_reports_identical(run(engine), run("cycle"))


class TestSaturationMatrix:
    """Below / at / above the knee — the vector engine's home regime.

    On the 4x4 mesh with 1 flit/cycle links and uniform traffic, the
    latency knee sits near 0.2 flits/cycle/node; 0.05 is comfortably
    below, 0.22 rides the knee, and 0.40 oversubscribes the fabric so NI
    backlogs grow for the whole run (the hardest bookkeeping case: every
    component busy every cycle).
    """

    RATES = (0.05, 0.22, 0.40)

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("rate", RATES)
    def test_uniform_rate_matrix(self, engine, rate):
        mesh = NoCTopology.mesh(4, 4, link_bandwidth=1600.0)
        config = SimConfig(
            warmup_cycles=300, measure_cycles=2_500, drain_cycles=600, seed=5
        )

        def run(name):
            network = build_synthetic_network(mesh, config, "uniform", rate)
            return Simulator(network, engine=name).run()

        assert_reports_identical(run(engine), run("cycle"))

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("rate", (0.05, 0.30))
    def test_transpose_saturates_the_diagonal(self, engine, rate):
        """Transpose under XY concentrates the diagonal: 0.30 is far past
        its knee, with worms blocked on credits for most of the run."""
        mesh = NoCTopology.mesh(4, 4, link_bandwidth=1600.0)
        config = SimConfig(
            warmup_cycles=300, measure_cycles=2_500, drain_cycles=600, seed=9
        )

        def run(name):
            network = build_synthetic_network(mesh, config, "transpose", rate)
            return Simulator(network, engine=name).run()

        assert_reports_identical(run(engine), run("cycle"))

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("rate", (0.05, 0.35))
    def test_vc_router_rate_matrix(self, engine, rate):
        """The same sweep on the VC router (per-lane credits and buffers)."""
        mesh = NoCTopology.mesh(4, 4, link_bandwidth=1600.0)
        config = SimConfig(
            warmup_cycles=300,
            measure_cycles=2_000,
            drain_cycles=600,
            seed=4,
            num_vcs=2,
            vc_buffer_depth=4,
        )

        def run(name):
            network = build_synthetic_network(mesh, config, "uniform", rate)
            return Simulator(network, engine=name).run()

        assert_reports_identical(run(engine), run("cycle"))

    def test_vector_trace_identical_at_saturation(self):
        """Flit-for-flit identity in the regime the engine was built for."""
        mesh = NoCTopology.mesh(4, 4, link_bandwidth=1600.0)
        config = SimConfig(
            warmup_cycles=200, measure_cycles=1_500, drain_cycles=400, seed=3
        )

        def run(name):
            network = build_synthetic_network(mesh, config, "uniform", 0.30)
            recorder = TraceRecorder(max_events=10**6)
            Simulator(network, trace=recorder, engine=name).run()
            return recorder.events

        assert run("vector") == run("cycle")


class TestVCRouterEquivalence:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("num_vcs", [2, 4])
    def test_trace_traffic_with_vcs(self, engine, num_vcs):
        app = vopd()
        mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
        mapping = nmap_single_path(app, mesh).mapping
        commodities = build_commodities(app, mapping)
        routing = min_path_routing(mesh, commodities)
        config = SimConfig(
            warmup_cycles=300,
            measure_cycles=3_000,
            drain_cycles=500,
            seed=13,
            num_vcs=num_vcs,
        )

        def run(name):
            network = build_network(
                mesh, commodities, routing, config, bandwidth_scale=0.5
            )
            return Simulator(network, engine=name).run()

        assert_reports_identical(run(engine), run("cycle"))

    @pytest.mark.parametrize("num_vcs", [2, 4])
    def test_vc_flit_traces_identical(self, num_vcs):
        """The vector engine's VC loop, pinned flit for flit."""
        app = vopd()
        mesh = NoCTopology.smallest_mesh_for(16, link_bandwidth=app.total_bandwidth())
        mapping = nmap_single_path(app, mesh).mapping
        commodities = build_commodities(app, mapping)
        routing = min_path_routing(mesh, commodities)
        config = SimConfig(
            warmup_cycles=300,
            measure_cycles=2_000,
            drain_cycles=500,
            seed=13,
            num_vcs=num_vcs,
        )

        def run(name):
            network = build_network(
                mesh, commodities, routing, config, bandwidth_scale=0.5
            )
            recorder = TraceRecorder(max_events=10**6)
            Simulator(network, trace=recorder, engine=name).run()
            return recorder.events

        assert run("vector") == run("cycle")

    @pytest.mark.parametrize("num_vcs", [1, 2])
    def test_router_skip_scan_matches_every_port_scan(self, num_vcs):
        """Under one and the same full-scan loop, a router's step (which
        skips unrequested ports and lanes) == the seed's scan of them all."""
        mesh = NoCTopology.mesh(3, 3, link_bandwidth=600.0)
        config = SimConfig(
            warmup_cycles=300,
            measure_cycles=3_000,
            drain_cycles=500,
            seed=4,
            num_vcs=num_vcs,
            vc_buffer_depth=4 if num_vcs > 1 else None,
        )

        def run(step):
            network = build_synthetic_network(mesh, config, "uniform", 0.2)
            return seed_cycle_loop(Simulator(network), step)

        assert_reports_identical(
            run(lambda router, cycle, deliver: router.step(cycle, deliver)),
            run(every_port_step),
        )


class TestAutoEngineEquivalence:
    """``auto`` only ever delegates to bit-identical backends."""

    @pytest.mark.parametrize("rate", (0.02, 0.30))
    def test_auto_matches_cycle_at_both_ends(self, rate):
        mesh = NoCTopology.mesh(4, 4, link_bandwidth=1600.0)
        config = SimConfig(
            warmup_cycles=300, measure_cycles=2_000, drain_cycles=500, seed=6
        )

        def run(name):
            network = build_synthetic_network(mesh, config, "uniform", rate)
            return Simulator(network, engine=name).run()

        assert_reports_identical(run("auto"), run("cycle"))


@pytest.fixture
def jit_mode(request, monkeypatch):
    """Pin ``REPRO_JIT`` to the parametrized rung; skip where it cannot run."""
    from repro.simnoc.engines.jit import resolve_backend

    mode = request.param
    monkeypatch.delenv("REPRO_NO_JIT", raising=False)
    monkeypatch.setenv("REPRO_JIT", mode)
    backend, reason = resolve_backend()
    if mode != "off" and backend is None:
        pytest.skip(f"JIT backend {mode!r} unavailable here: {reason}")
    return mode


class TestKernelTierEquivalence:
    """Every rung of the JIT ladder is bit-identical to the cycle engine.

    ``off`` pins the interpreted ranged sweep (what a numba-less,
    compiler-less machine runs, in-process over the one-shard plan);
    ``py`` executes the kernel twin as plain Python, so the kernel
    *algorithm* is property-tested even where no backend compiles; ``c``
    and ``numba`` are the compiled rungs, each skipped with a reason where
    its toolchain is missing.

    The scenarios cover both router models at saturation and near idle
    (the interpreted sweep fast-forwards idle gaps), plus the two corners
    every rung hands to the interpreted sweep even with a backend
    resolved: more lanes than the kernels' bitmask holds, and a trace
    recorder with no room left.
    """

    MODES = ("off", "py", "c", "numba")

    #: id -> (num_vcs, injection rate, trace recorder pre-filled to its cap)
    SCENARIOS = {
        "plain": (1, 0.30, False),
        "vc2": (2, 0.30, False),
        "plain-near-idle": (1, 0.002, False),
        "vc2-near-idle": (2, 0.002, False),
        "vcs-over-kernel-cap": (MAX_KERNEL_VCS + 1, 0.30, False),
        "trace-recorder-full": (1, 0.30, True),
    }

    @pytest.mark.parametrize("jit_mode", MODES, indirect=True)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_reports_and_traces_match_cycle(self, jit_mode, scenario):
        num_vcs, rate, recorder_full = self.SCENARIOS[scenario]
        mesh = NoCTopology.mesh(4, 4, link_bandwidth=1600.0)
        config = SimConfig(
            warmup_cycles=200,
            measure_cycles=1_200,
            drain_cycles=400,
            seed=3,
            num_vcs=num_vcs,
            vc_buffer_depth=4 if num_vcs > 1 else None,
        )

        def run(name):
            network = build_synthetic_network(mesh, config, "uniform", rate)
            if recorder_full:
                recorder = TraceRecorder(max_events=4)
                recorder.events.extend(["earlier run"] * 4)
            else:
                recorder = TraceRecorder(max_events=10**6)
            report = Simulator(network, trace=recorder, engine=name).run()
            return report, recorder.events, recorder.truncated

        fast_report, fast_events, fast_truncated = run("vector")
        ref_report, ref_events, ref_truncated = run("cycle")
        assert_reports_identical(fast_report, ref_report)
        assert fast_events == ref_events
        assert fast_truncated == ref_truncated == recorder_full

    @pytest.mark.parametrize("jit_mode", MODES, indirect=True)
    def test_replica_batch_matches_one_at_a_time(self, jit_mode):
        """R sims advanced in one batched call == the same R run singly:
        identical reports, identical traces, positional order kept."""
        from repro.simnoc.engines.vector import VectorEngine, run_replicas

        mesh = NoCTopology.mesh(4, 4, link_bandwidth=1600.0)
        # Mixed rates, seeds and router models in one batch.
        variants = [
            (rate, seed, num_vcs)
            for rate, seed in ((0.05, 1), (0.22, 2), (0.40, 3))
            for num_vcs in (1, 2)
        ]

        def build(rate, seed, num_vcs):
            config = SimConfig(
                warmup_cycles=200,
                measure_cycles=800,
                drain_cycles=300,
                seed=seed,
                num_vcs=num_vcs,
                vc_buffer_depth=4 if num_vcs > 1 else None,
            )
            network = build_synthetic_network(mesh, config, "uniform", rate)
            recorder = TraceRecorder(max_events=10**6)
            return Simulator(network, trace=recorder, engine="vector"), recorder

        batched = [build(*v) for v in variants]
        errors = run_replicas([sim for sim, _ in batched])
        assert errors == [None] * len(variants)

        for (sim, recorder), variant in zip(batched, variants):
            single, single_recorder = build(*variant)
            VectorEngine().run(single)
            assert_reports_identical(sim._build_report(), single._build_report())
            assert recorder.events == single_recorder.events


class TestDeadlockExit:
    """A network that stalls for good ends every engine the same way.

    The deadlock exit is the kernel twin's only early ``return`` (plus its
    status block) and each engine's only mid-run raise.  ``cycle``, the
    seed's full-scan loop it is held to, ``event`` and ``vector`` on every
    JIT rung must raise the identical ``SimulationError`` text.  ``sharded``
    detects the stall per shard — whichever worker gives up first reports
    its own flit count inside a worker-failure message — so there only the
    sentence is pinned.
    """

    SENTENCE = r"deadlock: no flit moved since cycle \d+ with \d+ flits buffered"

    #: num_vcs -> the cycle engine's message, shared by every cell below.
    _references: dict = {}

    @staticmethod
    def _message(network, engine, **kwargs):
        with pytest.raises(SimulationError) as raised:
            Simulator(network, engine=engine, **kwargs).run()
        return str(raised.value)

    def _reference(self, ring, num_vcs):
        if num_vcs not in self._references:
            self._references[num_vcs] = self._message(ring(num_vcs), "cycle")
            assert re.fullmatch(self.SENTENCE, self._references[num_vcs])
        return self._references[num_vcs]

    @pytest.mark.parametrize("num_vcs", (1, 2))
    def test_event_matches_cycle(self, deadlocking_ring, num_vcs):
        message = self._message(deadlocking_ring(num_vcs), "event")
        assert message == self._reference(deadlocking_ring, num_vcs)

    @pytest.mark.parametrize("num_vcs", (1, 2))
    def test_seed_loop_matches_cycle(self, deadlocking_ring, num_vcs):
        with pytest.raises(SimulationError) as raised:
            seed_cycle_loop(Simulator(deadlocking_ring(num_vcs)))
        assert str(raised.value) == self._reference(deadlocking_ring, num_vcs)

    @pytest.mark.parametrize("num_vcs", (1, 2))
    @pytest.mark.parametrize("jit_mode", TestKernelTierEquivalence.MODES, indirect=True)
    def test_every_vector_rung_matches_cycle(self, jit_mode, deadlocking_ring, num_vcs):
        message = self._message(deadlocking_ring(num_vcs), "vector")
        assert message == self._reference(deadlocking_ring, num_vcs)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="sharded engine requires the fork start method",
    )
    def test_sharded_workers_report_the_stall(self, deadlocking_ring):
        message = self._message(deadlocking_ring(), "sharded", shards=2)
        assert re.search(self.SENTENCE, message)


#: (topology kind, num_vcs, rate) -> (report, trace events) from the cycle
#: engine — each reference is shared by the shards={1,2,4} sharded runs.
_SHARDED_REFS: dict = {}


def _sharded_scenario(topo_kind, num_vcs, rate):
    """Network + config for one cell of the sharded equivalence matrix."""
    if topo_kind == "mesh":
        fabric = NoCTopology.mesh(8, 8, link_bandwidth=1600.0)
    else:
        fabric = NoCTopology.torus_grid(8, 8, link_bandwidth=1600.0)
    config = SimConfig(
        warmup_cycles=100,
        measure_cycles=500,
        drain_cycles=200,
        seed=5,
        num_vcs=num_vcs,
        vc_buffer_depth=4 if num_vcs > 1 else None,
    )
    return build_synthetic_network(fabric, config, "uniform", rate)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded engine needs the fork start method",
)
class TestShardedEngineEquivalence:
    """The sharded engine == cycle engine for ANY shard count.

    The conservative barrier protocol (ARCHITECTURE.md) promises that
    splitting the fabric across worker processes changes wall-clock
    behaviour only: reports and flit traces stay byte-identical to the
    single-process reference for every shard count, both router models,
    and loads from near idle to above the saturation knee.  Shards=1 pins
    the in-process route (no worker, no boundary traffic — near idle it
    fast-forwards the gaps between injections, while any worker with
    channel peers must never skip a cycle); shards=4 on the torus cuts
    wrap-around links, the hardest boundary pattern.
    """

    RATES = (0.002, 0.05, 0.22, 0.40)

    @staticmethod
    def _cycle_reference(topo_kind, num_vcs, rate):
        key = (topo_kind, num_vcs, rate)
        if key not in _SHARDED_REFS:
            network = _sharded_scenario(*key)
            recorder = TraceRecorder(max_events=10**6)
            report = Simulator(network, trace=recorder, engine="cycle").run()
            _SHARDED_REFS[key] = (report, recorder.events)
        return _SHARDED_REFS[key]

    @pytest.mark.parametrize("shards", (1, 2, 4))
    @pytest.mark.parametrize("num_vcs", (1, 2))
    @pytest.mark.parametrize("topo_kind", ("mesh", "torus"))
    @pytest.mark.parametrize("rate", RATES)
    def test_reports_and_traces_match_cycle(self, topo_kind, num_vcs, rate, shards):
        network = _sharded_scenario(topo_kind, num_vcs, rate)
        recorder = TraceRecorder(max_events=10**6)
        report = Simulator(
            network,
            trace=recorder,
            engine="sharded",
            shards=shards,
            partitioner="greedy-edge",
        ).run()
        ref_report, ref_events = self._cycle_reference(topo_kind, num_vcs, rate)
        assert_reports_identical(report, ref_report)
        assert recorder.events == ref_events

    def test_round_robin_single_node_segments(self):
        """Round-robin gives every node its own segment — all traffic is
        boundary traffic, the protocol's worst case."""
        mesh = NoCTopology.mesh(4, 4, link_bandwidth=1600.0)
        config = SimConfig(
            warmup_cycles=200, measure_cycles=1_000, drain_cycles=400, seed=3
        )

        def run(name, **kwargs):
            network = build_synthetic_network(mesh, config, "uniform", 0.25)
            recorder = TraceRecorder(max_events=10**6)
            report = Simulator(network, trace=recorder, engine=name, **kwargs).run()
            return report, recorder.events

        fast_report, fast_events = run(
            "sharded", shards=4, partitioner="round-robin"
        )
        ref_report, ref_events = run("cycle")
        assert_reports_identical(fast_report, ref_report)
        assert fast_events == ref_events


class TestFaultScenarioEquivalence:
    """Fault-injected scenarios run bit-identically on every engine.

    The fault subsystem only changes *inputs* — a masked topology and
    rerouted paths — so the engine-equivalence contract must carry over
    unchanged: identical reports, and identical flit traces, for traffic
    detouring around failed links and routers.
    """

    @staticmethod
    def _fault_setup(topology, spec, seed):
        from repro.faults import fault_reroute
        from repro.faults.spec import FaultSpec

        app = random_core_graph(12, seed=5)
        fabric = topology.with_uniform_bandwidth(app.total_bandwidth())
        degraded = FaultSpec(**spec).apply(fabric)
        mapping = nmap_single_path(app, degraded).mapping
        commodities = build_commodities(app, mapping)
        routing = fault_reroute(degraded, commodities)
        config = SimConfig(
            warmup_cycles=300,
            measure_cycles=3_000,
            drain_cycles=500,
            seed=seed,
            mean_burst_packets=2.0,
        )
        return degraded, commodities, routing, config

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("spec", [
        {"failed_links": ((1, 2),)},
        {"failed_links": ((1, 2), (9, 13)), "degraded_links": ((5, 6, 0.5),)},
    ])
    def test_failed_links_on_mesh(self, engine, spec):
        degraded, commodities, routing, config = self._fault_setup(
            NoCTopology.mesh(4, 4), spec, seed=17
        )

        def run(name):
            network = build_network(
                degraded, commodities, routing, config, bandwidth_scale=0.3
            )
            return Simulator(network, engine=name).run()

        assert_reports_identical(run(engine), run("cycle"))

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_failed_router_on_torus(self, engine):
        degraded, commodities, routing, config = self._fault_setup(
            NoCTopology.torus_grid(4, 4), {"failed_routers": (5,)}, seed=23
        )

        def run(name):
            network = build_network(
                degraded, commodities, routing, config, bandwidth_scale=0.3
            )
            return Simulator(network, engine=name).run()

        assert_reports_identical(run(engine), run("cycle"))

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_fault_flit_traces_identical(self, engine):
        """Not just aggregates: the rerouted flit movements match exactly."""
        degraded, commodities, routing, config = self._fault_setup(
            NoCTopology.mesh(4, 4),
            {"failed_links": ((1, 2),), "failed_routers": (12,)},
            seed=29,
        )

        def run(name):
            network = build_network(
                degraded, commodities, routing, config, bandwidth_scale=0.4
            )
            recorder = TraceRecorder(max_events=10**6)
            Simulator(network, trace=recorder, engine=name).run()
            return recorder.events

        assert run(engine) == run("cycle")
