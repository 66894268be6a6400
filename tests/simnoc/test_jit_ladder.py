"""The kernel backends' plumbing: resolution, switches, warm-up hygiene.

Bit-identity of the kernels themselves is property-tested in
``tests/properties/test_engine_equivalence.py``; this file covers the
machinery around them — the environment switches, the per-mode resolution
cache, backend introspection for ``list-engines``, and the warm-up
contract (a second ``warmup()`` in the same process must compile nothing,
so benchmark medians and service first-request latency stay clean).
"""

from __future__ import annotations

import pytest

from repro.simnoc.engines import jit
from tests.reference.object_engine import OBJECT_ENGINE

#: The object-model engine is filed under ``OBJECT_ENGINE`` while this
#: module's tests run.
pytestmark = pytest.mark.usefixtures("object_engine")


@pytest.fixture(autouse=True)
def _clean_jit_env(monkeypatch):
    monkeypatch.delenv("REPRO_NO_JIT", raising=False)
    monkeypatch.delenv("REPRO_JIT", raising=False)


class TestResolution:
    def test_no_jit_resolves_no_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        backend, reason = jit.resolve_backend()
        assert backend is None
        assert "REPRO_NO_JIT" in reason

    def test_no_jit_wins_over_forced_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        monkeypatch.setenv("REPRO_JIT", "py")
        backend, _ = jit.resolve_backend()
        assert backend is None

    def test_py_mode_forces_the_kernel_twin(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "py")
        backend, _ = jit.resolve_backend()
        assert backend is not None
        assert backend.name == "py"

    def test_unknown_mode_resolves_no_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "fortran")
        backend, reason = jit.resolve_backend()
        assert backend is None
        assert "fortran" in reason

    def test_auto_never_raises(self):
        backend, reason = jit.resolve_backend()
        assert reason
        if backend is not None:
            assert backend.name == "c"


class TestIntrospection:
    def test_rows_cover_every_compiled_rung(self):
        rows = jit.available_backends()
        assert [row["name"] for row in rows] == ["c"]
        for row in rows:
            assert isinstance(row["available"], bool)
            assert row["reason"]

    def test_rows_report_disabled_when_no_jit(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        for row in jit.available_backends():
            assert row["available"] is False
            assert "REPRO_NO_JIT" in row["reason"]


class TestWarmupHygiene:
    def test_second_warmup_compiles_nothing(self):
        name, reason = jit.warmup()
        if name == "none":
            pytest.skip(f"no compiled backend here: {reason}")
        before = jit.compile_events()
        name_again, _ = jit.warmup()
        assert name_again == name
        assert jit.compile_events() == before

    def test_introspection_after_warmup_builds_nothing(self, monkeypatch):
        """``available_backends()`` reports the rungs already probed; it must
        not build them again (reloading the library)."""
        from repro.simnoc.engines import ckern

        jit.warmup()
        rows = jit.available_backends()
        before = jit.compile_events()

        def reloaded():
            raise AssertionError("the C library was loaded a second time")

        monkeypatch.setattr(ckern, "load_library", reloaded)
        assert jit.available_backends() == rows
        assert jit.available_backends() == rows
        assert jit.compile_events() == before

    def test_warmup_reports_none_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        name, reason = jit.warmup()
        assert name == "none"
        assert "REPRO_NO_JIT" in reason


class TestCacheKey:
    def test_text_compiler_and_flags_each_name_their_own_object(
        self, monkeypatch, tmp_path
    ):
        """``make check-cc`` once per ``CC`` over one cache must build twice:
        an object keyed by the text alone would answer for both compilers."""
        from repro.simnoc.engines import ckern

        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        base = ckern.library_path("text", "/usr/bin/gcc")
        assert base == ckern.library_path("text", "/usr/bin/gcc", ckern.CFLAGS)
        assert base.parent == tmp_path
        others = {
            ckern.library_path("text", "/usr/bin/clang"),
            ckern.library_path("text", "/usr/bin/gcc", ckern.CFLAGS + ("-O3",)),
            ckern.library_path("text", "/usr/bin/gcc", ckern.CFLAGS[::-1]),
            ckern.library_path("text2", "/usr/bin/gcc"),
            # no field bleeds into its neighbour
            ckern.library_path("text/usr", "/bin/gcc"),
        }
        assert len(others) == 5 and base not in others

    def test_the_loader_keys_on_the_compiler_it_resolved(self, monkeypatch, tmp_path):
        from repro.simnoc.engines import ckern

        real = ckern._find_compiler()
        if real is None:
            pytest.skip("no C compiler on PATH")
        other = tmp_path / "bin" / "other-cc"
        other.parent.mkdir()
        other.write_text(f'#!/bin/sh\nexec {real} "$@"\n')
        other.chmod(0o755)
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path / "cache"))
        before = ckern.compile_events
        ckern.load_library()
        monkeypatch.setenv("CC", str(other))
        assert ckern._find_compiler() == str(other)
        ckern.load_library()
        ckern.load_library()  # and a hit on the second key
        assert ckern.compile_events == before + 2
        assert len(list((tmp_path / "cache").glob("simnoc_kernels_*.so"))) == 2


class TestCorruptCacheEntry:
    def test_truncated_so_is_rebuilt_once(self, monkeypatch, tmp_path):
        """A cached ``.so`` the loader rejects is replaced, not obeyed."""
        from repro.graphs.topology import NoCTopology
        from repro.simnoc.config import SimConfig
        from repro.simnoc.engines import ckern
        from repro.simnoc.simulator import simulate_synthetic

        if ckern._find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setenv("REPRO_JIT", "c")
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        monkeypatch.setattr(jit, "_BUILT", {})
        entry = ckern.library_path(ckern.source(), ckern._find_compiler())
        assert entry.parent == tmp_path
        entry.write_bytes(b"\x7fELF truncated")

        before = jit.compile_events()
        backend, reason = jit.resolve_backend()
        assert backend is not None and backend.name == "c", reason
        assert jit.compile_events() == before + 1
        assert entry.stat().st_size > 1000

        config = SimConfig(warmup_cycles=50, measure_cycles=300, drain_cycles=100)
        reports = [
            simulate_synthetic(
                NoCTopology(4, 4, 1000.0), config, "uniform", 0.2, engine=engine
            )
            for engine in ("vector", OBJECT_ENGINE)
        ]
        assert reports[0] == reports[1]
