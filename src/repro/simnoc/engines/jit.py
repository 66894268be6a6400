"""The JIT ladder: pick the fastest available kernel backend.

The vector engine's compiled sweep has one source, the *kernel twin*
(``advance_plain`` / ``advance_vc`` in :mod:`repro.simnoc.engines.kernels`),
and :data:`LADDER` (a :class:`~repro.registry.Ladder`) tries two rungs
made from it:

1. **numba** — the twin under ``@njit(cache=True)`` (``pip install
   repro[jit]``);
2. **c** — the twin emitted as C99 by :mod:`repro.simnoc.engines.ckern`,
   compiled once with the system ``cc`` and cached as a shared object.

With neither, ``resolve_backend`` returns no backend and the vector engine
runs the one interpreted sweep, :mod:`repro.simnoc.engines.sweep`.  Each
rung is built at most once per process, whichever call asks first, so
forked pool workers inherit a loaded library and introspection never
recompiles.  Switches, read on every resolution (a reason that names a
switch names the one that fired):

* ``REPRO_NO_JIT=1`` disables every backend: the vector engine runs the
  interpreted sweep (the A/B and fallback-rot guard; CI runs a job so).
* ``REPRO_JIT=numba|c|py|off`` pins one rung.  ``py`` runs the twin as
  plain CPython, 5–6x slower than the interpreted sweep (PERFORMANCE.md,
  "The engine ladder"); it exists so the kernel algorithm is
  property-testable with no toolchain at all.

Every rung is bit-identical to the cycle engine (reports and flit traces;
``tests/properties/test_engine_equivalence.py``).  :func:`warmup` builds
the resolved backend ahead of time, so service first requests and
benchmark medians never include compilation; :func:`compile_events`
counts actual compilations for the warm-up hygiene test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.registry import Ladder
from repro.simnoc.engines import ckern, kernels
from repro.simnoc.engines.ckern import BackendUnavailable
from repro.simnoc.engines.flat_kernel import ARG_DTYPES

__all__ = [
    "LADDER",
    "BackendUnavailable",
    "available_backends",
    "compile_events",
    "resolve_backend",
    "warmup",
]

#: numba compilations observed by this module (see :func:`compile_events`).
_numba_compiles = 0


def compile_events() -> int:
    """Kernel compilations this process has performed, all rungs; cache
    hits (numba's on-disk cache, the cached ``.so``) do not count, so a
    second :func:`warmup` must leave it unchanged."""
    return _numba_compiles + ckern.compile_events


@dataclass(frozen=True)
class Backend:
    """One rung of the ladder: the kernel twin's two functions, runnable."""

    name: str
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


# Each builder is a ladder probe: ``(backend, description)``, or
# ``(None, why)`` when the rung cannot run here.
def _build_py() -> tuple[Backend, str]:
    backend = Backend("py", kernels.advance_plain, kernels.advance_vc)
    return backend, "kernel twin interpreted by CPython (testing only)"


def _build_numba() -> tuple[Backend | None, str]:
    global _numba_compiles
    try:
        import numba
    except ImportError:
        return None, "numba not installed (pip install repro[jit])"
    try:
        njit = numba.njit(cache=True, fastmath=False)
        backend = Backend(
            "numba", njit(kernels.advance_plain), njit(kernels.advance_vc)
        )
        _zero_cycle_calls(backend)
    except Exception as exc:  # numba present but broken: step down, not crash
        return None, f"numba failed to compile kernels: {exc}"
    # Each new signature is work numba did in this process (JIT compile or
    # cache deserialize); the rung is built once, so it is counted once.
    _numba_compiles += len(backend.plain_fn.signatures) + len(backend.vc_fn.signatures)
    return backend, f"numba {numba.__version__} @njit kernels"


def _build_c() -> tuple[Backend | None, str]:
    try:
        lib = ckern.load_library()
    except BackendUnavailable as exc:
        return None, str(exc)
    backend = Backend("c", lib.advance_plain, lib.advance_vc)
    try:
        _zero_cycle_calls(backend)
    except Exception as exc:  # loaded but does not run: step down
        return None, f"C kernel library failed self-test: {exc}"
    return backend, "kernel twin emitted as C, compiled with the system cc (cached .so)"


#: ``auto`` tries numba, then C; ``py`` runs only when pinned.
LADDER = Ladder(
    "kernel backend",
    {"numba": _build_numba, "c": _build_c, "py": _build_py},
    ("numba", "c"),
    kill="REPRO_NO_JIT",
    pin="REPRO_JIT",
)


def resolve_backend() -> tuple[Backend | None, str]:
    """``(backend, reason)`` for the current environment; ``backend`` is
    ``None`` when no rung can run or JIT is disabled (the interpreted sweep
    runs instead)."""
    _, backend, reason = LADDER.resolve()
    return backend, reason


def warmup() -> tuple[str, str]:
    """Build the resolved backend ahead of time: ``(backend_name, reason)``,
    ``("none", why)`` when none is available.  The job service calls it
    before forking its workers, the benchmark during set-up."""
    backend, reason = resolve_backend()
    return ("none" if backend is None else backend.name), reason


#: ``{name, available, reason}`` rows for the compiled rungs.
available_backends = LADDER.rows
