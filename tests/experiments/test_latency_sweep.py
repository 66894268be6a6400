"""The saturation-sweep experiment: shape, monotonicity, engine choice."""

from __future__ import annotations

from repro.experiments.latency_sweep import run_latency_sweep


class TestLatencySweep:
    def test_small_sweep_shape_and_saturation(self):
        table = run_latency_sweep(
            rates=(0.05, 0.30),
            patterns=("uniform",),
            measure_cycles=2_000,
        )
        assert table.headers == ["rate_flits_cycle", "uniform_mean", "uniform_p95"]
        assert [row[0] for row in table.rows] == [0.05, 0.30]
        low, high = table.rows[0], table.rows[1]
        # Latency rises toward saturation; tails rise at least as fast.
        assert high[1] > low[1]
        assert high[2] >= low[2]

    def test_engines_produce_identical_tables(self, object_engine):
        kwargs = dict(rates=(0.08,), patterns=("transpose",), measure_cycles=1_500)
        vector = run_latency_sweep(engine="vector", **kwargs)
        cycle = run_latency_sweep(engine=object_engine, **kwargs)
        assert vector.rows == cycle.rows

    def test_vcs_flow_through(self):
        table = run_latency_sweep(
            rates=(0.08,), patterns=("uniform",), measure_cycles=1_500, num_vcs=2
        )
        assert "2 VC(s)" in table.notes[0]
        assert table.rows and table.rows[0][1] > 0
