"""The C rung is *derived*: emission from the kernel twin, and its failures.

``ckern`` holds no sweep of its own — it prints ``kernels.advance_plain`` /
``advance_vc`` as C.  This file covers that step: the shipped twin emits
(deterministically, and only when asked), a twin outside the accepted
subset is a ladder step with a reason that names the function and line,
and the compiled result leaves every kernel array byte-identical to the
twin run as plain Python.  Only the last class needs a C compiler.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.graphs.topology import NoCTopology
from repro.simnoc import SimConfig, Simulator, build_synthetic_network
from repro.simnoc.engines import ckern, jit, kernels
from repro.simnoc.engines.flat_kernel import ARG_FIELDS, KernelProgram
from repro.simnoc.trace import TraceRecorder
from tests.reference.object_engine import OBJECT_ENGINE

#: The object-model engine is filed under ``OBJECT_ENGINE`` while this
#: module's tests run.
pytestmark = pytest.mark.usefixtures("object_engine")


class TestEmission:
    def test_shipped_twin_emits_the_same_text_twice(self):
        text = ckern.source()
        assert text == ckern.source()
        for name in ("advance_plain", "advance_vc"):
            assert f"void {name}(" in text

    def test_import_emits_and_compiles_nothing(self):
        """Both happen on the first ``load_library()``; an import that read
        the twin's source would fail here."""
        script = (
            "import inspect\n"
            "def boom(*args): raise AssertionError('emitted at import')\n"
            "inspect.getsourcelines = boom\n"
            "from repro.simnoc.engines import ckern, jit\n"
            "assert jit.compile_events() == 0\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True, timeout=60)


def _twin_with_body(tmp_path, body: str):
    """A file-backed function with the kernel signature and ``body``;
    the body's first statement sits on line 3 of the file."""
    source = f"import numpy as np\ndef advance_plain({', '.join(ARG_FIELDS)}):\n"
    source += "".join(f"    {line}\n" for line in body.splitlines())
    path = tmp_path / "bad_twin.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("bad_twin", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.advance_plain


class TestUnsupportedTwin:
    #: id -> (function body, line of the offending construct, message part)
    BODIES = {
        "try": ("try:\n    size = params[4]\nfinally:\n    pass", 3, "try:"),
        "foreign-call": ("size = abs(params[4])", 3, "abs(params[4])"),
        "chained-comparison": (
            "size = params[4]\nif 0 <= size < 5:\n    return",
            4,
            "0 <= size < 5",
        ),
        "type-change": ("tk = 1\ntk = out_tokens[0]", 4, "int64_t"),
        "mixed-arithmetic": ("tk = params[4] * 0.5", 3, "double"),
        "for-over-array": ("for node in active:\n    pass", 3, "for node in active"),
        "nested-allocation": (
            "if params[4] > 0:\n    popped = np.empty(params[2], np.int64)",
            4,
            "np.empty",
        ),
    }

    @pytest.mark.parametrize("case", BODIES)
    def test_names_function_and_line(self, case, tmp_path, monkeypatch):
        body, line, part = self.BODIES[case]
        monkeypatch.setattr(kernels, "advance_plain", _twin_with_body(tmp_path, body))
        with pytest.raises(ckern.BackendUnavailable) as raised:
            ckern.source()
        message = str(raised.value)
        assert f"kernels.advance_plain, line {line}:" in message
        assert part in message

    def test_a_signature_that_is_not_arg_fields_is_refused(self, monkeypatch):
        def advance_vc(params, result):
            result[0] = params[0]

        monkeypatch.setattr(kernels, "advance_vc", advance_vc)
        with pytest.raises(ckern.BackendUnavailable, match="ARG_FIELDS"):
            ckern.source()

    def test_unreadable_source_steps_down_the_ladder(self, monkeypatch, capsys):
        """No source, no C: the rung reports why, ``list-engines`` shows it,
        and the vector engine runs the interpreted sweep."""
        namespace: dict = {}
        exec("def advance_vc(*args):\n    pass", namespace)
        monkeypatch.setattr(kernels, "advance_vc", namespace["advance_vc"])
        monkeypatch.setattr(jit, "_BUILT", {})
        monkeypatch.delenv("REPRO_NO_JIT", raising=False)
        monkeypatch.setenv("REPRO_JIT", "c")

        backend, reason = jit.resolve_backend()
        assert backend is None
        assert "cannot read the source of kernels.advance_vc" in reason
        (row,) = jit.available_backends()
        assert row == {"name": "c", "available": False, "reason": reason}
        assert main(["list-engines"]) == 0
        assert reason in capsys.readouterr().out

        config = SimConfig(warmup_cycles=50, measure_cycles=300, drain_cycles=100)
        mesh = NoCTopology.mesh(3, 3, link_bandwidth=1600.0)
        reports = [
            Simulator(
                build_synthetic_network(mesh, config, "uniform", 0.2), engine=engine
            ).run()
            for engine in ("vector", OBJECT_ENGINE)
        ]
        assert reports[0] == reports[1]


class TestEmittedEqualsTwin:
    """Array level, stronger than the report-level equivalence cells: after
    one run of the twin and one of the C emitted from it, all 54 kernel
    arrays — state, logs, result block — are byte-identical."""

    #: id -> (num_vcs, injection rate, trace recorder capacity or None)
    SCENARIOS = {
        "plain": (1, 0.30, None),
        "vc2": (2, 0.30, None),
        "near-idle": (1, 0.002, None),
        "tracing": (2, 0.10, 10**6),
        "trace-capacity-hit": (1, 0.30, 500),
    }

    @pytest.fixture
    def backends(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_JIT", raising=False)
        resolved = []
        for mode in ("py", "c"):
            monkeypatch.setenv("REPRO_JIT", mode)
            backend, reason = jit.resolve_backend()
            if backend is None:
                pytest.skip(f"JIT backend {mode!r} unavailable here: {reason}")
            resolved.append(backend)
        return resolved

    @staticmethod
    def _assert_same_arrays(backends, build):
        programs = []
        for backend in backends:
            sim = build()
            model = sim.network.config.effective_router_model
            programs.append(KernelProgram(sim, model == "wormhole-vc"))
            backend.run(programs[-1:])
        for name in ARG_FIELDS:
            twin, emitted = (getattr(program, name) for program in programs)
            assert twin.dtype == emitted.dtype, name
            assert twin.tobytes() == emitted.tobytes(), name
        return programs[0]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_kernel_array_matches(self, backends, scenario):
        num_vcs, rate, capacity = self.SCENARIOS[scenario]
        config = SimConfig(
            warmup_cycles=100,
            measure_cycles=700,
            drain_cycles=200,
            seed=5,
            num_vcs=num_vcs,
            vc_buffer_depth=4 if num_vcs > 1 else None,
        )

        def build():
            mesh = NoCTopology.mesh(4, 4, link_bandwidth=1600.0)
            network = build_synthetic_network(mesh, config, "uniform", rate)
            trace = None if capacity is None else TraceRecorder(max_events=capacity)
            return Simulator(network, trace=trace, engine="vector")

        program = self._assert_same_arrays(backends, build)
        assert program.result[0] == kernels.STATUS_OK
        assert np.any(program.carried)
        assert bool(program.result[5]) == (scenario == "trace-capacity-hit")

    @pytest.mark.parametrize("num_vcs", (1, 2))
    def test_the_deadlock_exit_matches(self, backends, deadlocking_ring, num_vcs):
        program = self._assert_same_arrays(
            backends, lambda: Simulator(deadlocking_ring(num_vcs), engine="vector")
        )
        assert program.result[0] == kernels.STATUS_DEADLOCK
