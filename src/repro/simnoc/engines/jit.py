"""The JIT ladder: pick the fastest available kernel backend.

The vector engine's per-cycle sweep has two compiled rungs, tried in order
(``resolve_backend``), and one interpreted form below them:

1. **numba** — :mod:`repro.simnoc.engines.kernels` compiled with
   ``@njit(cache=True)`` (install via ``pip install repro[jit]``);
2. **c** — the same algorithm transliterated to C99 and compiled once
   with the system ``cc`` (:mod:`repro.simnoc.engines.ckern`), cached as a
   shared object under ``~/.cache/repro-jit``;
3. *(fallback, not a backend)* — the one interpreted sweep,
   :mod:`repro.simnoc.engines.sweep`: the ranged structure-of-arrays loops
   the ``sharded`` engine's workers also run, called in-process over the
   plan that owns every node.  Always available; ``resolve_backend``
   returns no backend and the vector engine takes this route itself.

Environment switches (read on every resolution, so tests can flip them):

* ``REPRO_NO_JIT=1`` disables every compiled backend — the vector engine
  runs the interpreted sweep (the A/B and fallback-rot guard; CI runs a
  whole job this way).
* ``REPRO_JIT=numba|c|py|off`` pins one rung.  ``py`` runs the *kernel
  twin* — the numba source executed as plain Python — which is 5–6x slower
  than the interpreted sweep and slower than the ``cycle`` engine
  (PERFORMANCE.md, "The engine ladder"); it exists only so the kernel
  algorithm itself is property-testable on machines without numba or a C
  compiler, which is also why the interpreted sweep is kept beside it.

The compiled rungs and the ``py`` twin run the same
:class:`~repro.simnoc.engines.flat_kernel.KernelProgram` arrays; every
form is bit-identical to the cycle engine (reports and flit traces), and
``tests/properties/test_engine_equivalence.py`` pins each rung.

:func:`warmup` compiles whatever the resolved backend needs ahead of
time, so first-request latency in the job service and benchmark medians
never include compilation; :func:`compile_events` counts actual
compilations (cache misses) for the warm-up hygiene test.
"""

from __future__ import annotations

import os

import numpy as np

from repro.simnoc.engines import kernels
from repro.simnoc.engines.flat_kernel import (
    ARG_FIELDS,
    KIND_IN,
    KIND_LANE,
    KIND_NODE,
    KIND_NODEP1,
    KIND_OUT,
    KIND_OUTLANE,
    KIND_PARAMS,
    KIND_PKT,
    KIND_PKTP1,
    KIND_QB,
    KIND_RESULT,
    FLOAT_FIELDS,
)

__all__ = [
    "BackendUnavailable",
    "available_backends",
    "compile_events",
    "resolve_backend",
    "warmup",
]


class BackendUnavailable(RuntimeError):
    """Raised by a backend that cannot run here; resolution steps down."""


#: numba compilations observed by this module (see :func:`compile_events`).
_numba_compiles = 0


def compile_events() -> int:
    """Total kernel compilations this process has performed (all rungs).

    Cache hits — numba's on-disk cache, the C tier's cached ``.so`` — do
    not count.  Two consecutive :func:`warmup` calls must therefore leave
    this number unchanged, which the warm-up hygiene test asserts.
    """
    from repro.simnoc.engines import ckern

    return _numba_compiles + ckern.compile_events


# ----------------------------------------------------------------------
# dummy program: the cheapest arrays that exercise a kernel's signature
# ----------------------------------------------------------------------
_DUMMY_LEN = {
    KIND_IN: 1,
    KIND_OUT: 1,
    KIND_OUTLANE: 1,
    KIND_NODEP1: 2,
    KIND_NODE: 1,
    KIND_QB: 2,
    KIND_LANE: 1,
    KIND_PKT: 0,
    KIND_PKTP1: 1,
    KIND_PARAMS: kernels.NUM_PARAMS,
    KIND_RESULT: kernels.NUM_RESULTS,
}


def _dummy_args() -> tuple:
    """Zero-cycle arrays: compiles the full signature, simulates nothing."""
    args = []
    for name, kind in ARG_FIELDS:
        length = _DUMMY_LEN.get(kind, 0)
        dtype = np.float64 if name in FLOAT_FIELDS else np.int64
        args.append(np.zeros(length, dtype=dtype))
    return tuple(args)


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class PyBackend:
    """The kernel twin run as plain Python — correctness rung, not speed."""

    name = "py"
    description = "kernel twin interpreted by CPython (testing only)"

    def warmup(self) -> None:
        pass

    def run(self, programs) -> None:
        for program in programs:
            fn = kernels.advance_vc if program.vc_mode else kernels.advance_plain
            fn(*program.args())


class NumbaBackend:
    """The kernel twin compiled with ``@njit(cache=True)``."""

    name = "numba"

    def __init__(self) -> None:
        global _numba_compiles
        import numba

        self.description = f"numba {numba.__version__} @njit kernels"
        njit = numba.njit(cache=True, fastmath=False)
        self._plain = njit(kernels.advance_plain)
        self._vc = njit(kernels.advance_vc)
        # Force compilation now (zero-cycle call).  A new signature means
        # numba did work this process (JIT compile or cache deserialize);
        # repeat warmups in the same process add nothing.
        for fn in (self._plain, self._vc):
            before = len(fn.signatures)
            fn(*_dummy_args())
            if len(fn.signatures) > before:
                _numba_compiles += 1

    def warmup(self) -> None:
        pass  # compilation happened in __init__

    def run(self, programs) -> None:
        for program in programs:
            fn = self._vc if program.vc_mode else self._plain
            fn(*program.args())


class CBackend:
    """The C transliteration, one ``advance_batch`` call per replica group."""

    name = "c"

    def __init__(self) -> None:
        from repro.simnoc.engines import ckern

        try:
            self._lib = ckern.load_library()
        except ckern.BackendUnavailable as exc:
            raise BackendUnavailable(str(exc)) from exc
        self.description = "C kernels compiled with the system cc (cached .so)"

    @staticmethod
    def _pointer_vectors(columns):
        # One uintp array of R per-replica pointers per kernel argument;
        # the kernels mutate the program arrays in place, so batching
        # copies nothing in either direction.
        return [
            np.fromiter((a.ctypes.data for a in col), dtype=np.uintp, count=len(col))
            for col in columns
        ]

    def warmup(self) -> None:
        dummies = _dummy_args()  # kept alive across the call
        self._lib.advance_batch(
            1, 0, *self._pointer_vectors([(a,) for a in dummies])
        )

    def run(self, programs) -> None:
        # A mixed batch splits by router model; each group advances in a
        # single compiled call over per-replica pointer vectors.
        for vc_mode in (False, True):
            group = [p for p in programs if p.vc_mode == vc_mode]
            if not group:
                continue
            columns = zip(*(p.args() for p in group))
            self._lib.advance_batch(
                len(group), int(vc_mode), *self._pointer_vectors(columns)
            )


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
_cache: dict[str, tuple[object | None, str]] = {}


def _mode() -> str:
    if os.environ.get("REPRO_NO_JIT", "").strip().lower() in ("1", "true", "yes", "on"):
        return "off"
    forced = os.environ.get("REPRO_JIT", "").strip().lower()
    return forced or "auto"


def _try_numba() -> tuple[object | None, str]:
    try:
        import numba  # noqa: F401
    except ImportError:
        return None, "numba not installed (pip install repro[jit])"
    try:
        return NumbaBackend(), "numba available"
    except Exception as exc:  # numba present but broken: step down, not crash
        return None, f"numba failed to compile kernels: {exc}"


def _try_c() -> tuple[object | None, str]:
    try:
        backend = CBackend()
    except BackendUnavailable as exc:
        return None, str(exc)
    try:
        backend.warmup()
    except Exception as exc:  # loaded but does not run: step down
        return None, f"C kernel library failed self-test: {exc}"
    return backend, "C kernels available"


def resolve_backend() -> tuple[object | None, str]:
    """``(backend, reason)`` for the current environment.

    ``backend`` is ``None`` when every compiled rung is unavailable or
    JIT is disabled — callers then use the interpreted sweep.  The
    outcome is cached per mode, so the (one-time) compile cost is paid at
    most once per process per mode.
    """
    mode = _mode()
    cached = _cache.get(mode)
    if cached is not None:
        return cached
    if mode == "off":
        outcome = (None, "JIT disabled (REPRO_NO_JIT)")
    elif mode == "py":
        outcome = (PyBackend(), "kernel twin forced (REPRO_JIT=py)")
    elif mode == "numba":
        outcome = _try_numba()
    elif mode == "c":
        outcome = _try_c()
    elif mode == "auto":
        backend, numba_reason = _try_numba()
        if backend is not None:
            outcome = (backend, numba_reason)
        else:
            backend, c_reason = _try_c()
            if backend is not None:
                outcome = (backend, c_reason)
            else:
                outcome = (None, f"{numba_reason}; {c_reason}")
    else:
        outcome = (None, f"unknown REPRO_JIT mode {mode!r}")
    _cache[mode] = outcome
    return outcome


def warmup() -> tuple[str, str]:
    """Compile the resolved backend ahead of time.

    Returns ``(backend_name, reason)`` — ``("none", why)`` when no
    compiled backend is available.  Invoked by ``benchmarks/run_bench.py``
    and by the job service at worker startup so neither benchmark medians
    nor first-request latency ever include compilation.
    """
    backend, reason = resolve_backend()
    if backend is None:
        return "none", reason
    backend.warmup()
    return backend.name, reason


def available_backends() -> list[dict[str, str]]:
    """Introspection rows for every rung (CLI ``list-engines``)."""
    rows = []
    for name, probe in (("numba", _try_numba), ("c", _try_c)):
        if _mode() == "off":
            rows.append(
                {"name": name, "available": False, "reason": "REPRO_NO_JIT is set"}
            )
            continue
        backend, reason = probe()
        rows.append({"name": name, "available": backend is not None, "reason": reason})
    return rows
