"""The JIT ladder: pick the fastest available kernel backend.

The vector engine's per-cycle sweep has one source for its compiled forms
— the *kernel twin*, ``advance_plain`` / ``advance_vc`` in
:mod:`repro.simnoc.engines.kernels` — and two compiled rungs made from it,
tried in order (``resolve_backend``), with one interpreted form below:

1. **numba** — the twin compiled with ``@njit(cache=True)`` (install via
   ``pip install repro[jit]``);
2. **c** — the twin emitted as C99 by :mod:`repro.simnoc.engines.ckern`
   and compiled once with the system ``cc``, cached as a shared object
   under ``~/.cache/repro-jit``;
3. *(fallback, not a backend)* — the one interpreted sweep,
   :mod:`repro.simnoc.engines.sweep`: the ranged structure-of-arrays loops
   the ``sharded`` engine's workers also run, called in-process over the
   plan that owns every node.  Always available; ``resolve_backend``
   returns no backend and the vector engine takes this route itself.

A rung is a :class:`Backend`: the twin's two functions in runnable form.
Each is built at most once per process (``_probe``), whether
``resolve_backend`` or ``available_backends`` asks first, so forked pool
workers inherit a loaded library and introspection never recompiles.

Environment switches (read on every resolution, so tests can flip them):

* ``REPRO_NO_JIT=1`` disables every compiled backend — the vector engine
  runs the interpreted sweep (the A/B and fallback-rot guard; CI runs a
  whole job this way).
* ``REPRO_JIT=numba|c|py|off`` pins one rung.  ``py`` runs the twin as
  plain Python, which is 5–6x slower than the interpreted sweep and slower
  than the ``cycle`` engine (PERFORMANCE.md, "The engine ladder"); it
  exists only so the kernel algorithm itself is property-testable on
  machines without numba or a C compiler, which is also why the
  interpreted sweep is kept beside it.

Every rung runs the same
:class:`~repro.simnoc.engines.flat_kernel.KernelProgram` arrays; every
form is bit-identical to the cycle engine (reports and flit traces), and
``tests/properties/test_engine_equivalence.py`` pins each rung.

:func:`warmup` builds whatever the resolved backend needs ahead of
time, so first-request latency in the job service and benchmark medians
never include compilation; :func:`compile_events` counts actual
compilations (cache misses) for the warm-up hygiene test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.simnoc.engines import ckern, kernels
from repro.simnoc.engines.ckern import BackendUnavailable
from repro.simnoc.engines.flat_kernel import ARG_DTYPES

__all__ = [
    "BackendUnavailable",
    "available_backends",
    "compile_events",
    "resolve_backend",
    "warmup",
]

#: numba compilations observed by this module (see :func:`compile_events`).
_numba_compiles = 0


def compile_events() -> int:
    """Total kernel compilations this process has performed (all rungs).

    Cache hits — numba's on-disk cache, the C tier's cached ``.so`` — do
    not count.  Two consecutive :func:`warmup` calls must therefore leave
    this number unchanged, which the warm-up hygiene test asserts.
    """
    return _numba_compiles + ckern.compile_events


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Backend:
    """One rung of the ladder: the kernel twin's two functions, runnable."""

    name: str
    description: str
    plain_fn: Callable[..., None]
    vc_fn: Callable[..., None]

    def run(self, programs) -> None:
        """Advance every program, in order, each mutated in place."""
        for program in programs:
            fn = self.vc_fn if program.vc_mode else self.plain_fn
            fn(*program.args())


def _zero_cycle_calls(backend: Backend) -> None:
    """Call both functions over all-zero blocks: the full signature is
    exercised (which is what makes numba compile) and nothing is simulated."""
    for fn in (backend.plain_fn, backend.vc_fn):
        fn(*(np.zeros(kernels.NUM_PARAMS, dtype) for dtype in ARG_DTYPES))


def _build_py() -> Backend:
    return Backend(
        "py",
        "kernel twin interpreted by CPython (testing only)",
        kernels.advance_plain,
        kernels.advance_vc,
    )


def _build_numba() -> Backend:
    global _numba_compiles
    try:
        import numba
    except ImportError as exc:
        raise BackendUnavailable(
            "numba not installed (pip install repro[jit])"
        ) from exc
    try:
        njit = numba.njit(cache=True, fastmath=False)
        backend = Backend(
            "numba",
            f"numba {numba.__version__} @njit kernels",
            njit(kernels.advance_plain),
            njit(kernels.advance_vc),
        )
        _zero_cycle_calls(backend)
    except Exception as exc:  # numba present but broken: step down, not crash
        raise BackendUnavailable(f"numba failed to compile kernels: {exc}") from exc
    # Each new signature is work numba did in this process (JIT compile or
    # cache deserialize); the rung is built once, so it is counted once.
    _numba_compiles += len(backend.plain_fn.signatures) + len(backend.vc_fn.signatures)
    return backend


def _build_c() -> Backend:
    lib = ckern.load_library()
    backend = Backend(
        "c",
        "kernel twin emitted as C, compiled with the system cc (cached .so)",
        lib.advance_plain,
        lib.advance_vc,
    )
    try:
        _zero_cycle_calls(backend)
    except Exception as exc:  # loaded but does not run: step down
        raise BackendUnavailable(
            f"C kernel library failed self-test: {exc}"
        ) from exc
    return backend


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
_BUILDERS = {"numba": _build_numba, "c": _build_c, "py": _build_py}

#: rung -> (backend or None, reason): every rung probed so far.
_cache: dict[str, tuple[Backend | None, str]] = {}


def _mode() -> str:
    if os.environ.get("REPRO_NO_JIT", "").strip().lower() in ("1", "true", "yes", "on"):
        return "off"
    forced = os.environ.get("REPRO_JIT", "").strip().lower()
    return forced or "auto"


def _probe(rung: str) -> tuple[Backend | None, str]:
    """Build ``rung`` on first request; the outcome, good or bad, is kept."""
    if rung not in _cache:
        try:
            backend = _BUILDERS[rung]()
            _cache[rung] = (backend, backend.description)
        except BackendUnavailable as exc:
            _cache[rung] = (None, str(exc))
    return _cache[rung]


def resolve_backend() -> tuple[Backend | None, str]:
    """``(backend, reason)`` for the current environment.

    ``backend`` is ``None`` when every compiled rung is unavailable or
    JIT is disabled — callers then use the interpreted sweep.  Rungs are
    probed once per process, so the (one-time) compile cost is paid at
    most once however often, and in whatever mode, this is called.
    """
    mode = _mode()
    if mode == "off":
        return None, "JIT disabled (REPRO_NO_JIT)"
    if mode in _BUILDERS:
        return _probe(mode)
    if mode != "auto":
        return None, f"unknown REPRO_JIT mode {mode!r}"
    reasons = []
    for rung in ("numba", "c"):
        backend, reason = _probe(rung)
        if backend is not None:
            return backend, reason
        reasons.append(reason)
    return None, "; ".join(reasons)


def warmup() -> tuple[str, str]:
    """Build the resolved backend ahead of time.

    Returns ``(backend_name, reason)`` — ``("none", why)`` when no
    compiled backend is available.  Invoked by the job service before it
    forks its workers and by ``benchmarks/e2e`` during set-up, so neither
    first-request latency nor the timed rounds ever include compilation.
    """
    backend, reason = resolve_backend()
    return ("none" if backend is None else backend.name), reason


def available_backends() -> list[dict[str, str]]:
    """Introspection rows for every compiled rung (CLI ``list-engines``)."""
    off = _mode() == "off"
    rows = []
    for rung in ("numba", "c"):
        backend, reason = (None, "REPRO_NO_JIT is set") if off else _probe(rung)
        rows.append({"name": rung, "available": backend is not None, "reason": reason})
    return rows
