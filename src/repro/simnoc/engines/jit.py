"""The kernel backends: the vector engine's compiled sweep, if one runs here.

The vector engine's compiled sweep has one source, the *kernel twin*
(``advance_plain`` / ``advance_vc`` in :mod:`repro.simnoc.engines.kernels`),
and two rungs made from it: **c**, the twin emitted as C99 by
:mod:`repro.simnoc.engines.ckern`, compiled once with the system ``cc``
and cached as a shared object, and **py**, the twin run as it stands.

Without a compiler, ``resolve_backend`` returns no backend and the vector
engine runs the one interpreted sweep, :mod:`repro.simnoc.engines.sweep`.
Each rung is built at most once per process, whichever call asks first, so
forked pool workers inherit a loaded library and introspection never
recompiles.  Switches, read on every resolution (a reason that names a
switch names the one that fired):

* ``REPRO_NO_JIT=1`` (or ``true`` / ``yes`` / ``on``) disables every
  backend: the vector engine runs the interpreted sweep (the A/B and
  fallback-rot guard; CI runs a job so).
* ``REPRO_JIT=c|py`` picks the rung, ``c`` by default.  ``py`` runs the
  twin as plain CPython, 5–6x slower than the interpreted sweep
  (PERFORMANCE.md, "Closed decisions"); it exists so the kernel algorithm
  is property-testable with no toolchain at all.

Every rung is bit-identical to the object-model oracle under
``tests/reference`` (reports and flit traces;
``tests/properties/test_differential.py``).  :func:`warmup` builds
the resolved backend ahead of time, so service first requests and
benchmark medians never include compilation; :func:`compile_events`
counts actual compilations for the warm-up hygiene test.
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

def compile_events() -> int:
    """Kernel compilations this process has performed; loading the cached
    ``.so`` does not count, so a second :func:`warmup` must leave it
    unchanged."""
    return ckern.compile_events


@dataclass(frozen=True)
class Backend:
    """One rung: the kernel twin's two functions, runnable."""

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
    exercised and nothing is simulated."""
    for fn in (backend.plain_fn, backend.vc_fn):
        fn(*(np.zeros(kernels.NUM_PARAMS, dtype) for dtype in ARG_DTYPES))


# Each builder returns ``(backend, description)``, or ``(None, why)`` when
# the rung cannot run here.
def _build_py() -> tuple[Backend, str]:
    backend = Backend("py", kernels.advance_plain, kernels.advance_vc)
    return backend, "kernel twin interpreted by CPython (testing only)"


def _build_c() -> tuple[Backend | None, str]:
    try:
        lib = ckern.load_library()
    except BackendUnavailable as exc:
        return None, str(exc)
    backend = Backend("c", lib.advance_plain, lib.advance_vc)
    try:
        _zero_cycle_calls(backend)
    except Exception as exc:  # loaded but does not run
        return None, f"C kernel library failed self-test: {exc}"
    return backend, "kernel twin emitted as C, compiled with the system cc (cached .so)"


#: rung -> builder; ``c`` is the default, ``py`` runs only when pinned.
RUNGS = {"c": _build_c, "py": _build_py}

#: rung -> its builder's ``(backend, reason)``, built at most once per process.
_BUILT: dict[str, tuple[Backend | None, str]] = {}


def _build(rung: str) -> tuple[Backend | None, str]:
    if rung not in _BUILT:
        _BUILT[rung] = RUNGS[rung]()
    return _BUILT[rung]


def _disabled() -> bool:
    """``REPRO_NO_JIT`` is set to ``1``, ``true``, ``yes`` or ``on``."""
    switch = os.environ.get("REPRO_NO_JIT", "").strip().lower()
    return switch in ("1", "true", "yes", "on")


def resolve_backend() -> tuple[Backend | None, str]:
    """``(backend, reason)`` for the current environment; ``backend`` is
    ``None`` when the rung cannot run or JIT is disabled (the interpreted
    sweep runs instead)."""
    if _disabled():
        return None, "disabled by REPRO_NO_JIT"
    pinned = os.environ.get("REPRO_JIT", "").strip().lower()
    if pinned and pinned not in RUNGS:
        return None, f"unknown REPRO_JIT mode {pinned!r}"
    backend, reason = _build(pinned or "c")
    if backend is not None and pinned:
        reason = f"pinned by REPRO_JIT={pinned}"
    return backend, reason


def warmup() -> tuple[str, str]:
    """Build the resolved backend ahead of time: ``(backend_name, reason)``,
    ``("none", why)`` when none is available.  The job service calls it
    before forking its workers, the benchmark during set-up."""
    backend, reason = resolve_backend()
    return ("none" if backend is None else backend.name), reason


def available_backends() -> list[dict]:
    """``{name, available, reason}`` rows for the compiled rungs."""
    backend, reason = (None, "disabled by REPRO_NO_JIT") if _disabled() else _build("c")
    return [{"name": "c", "available": backend is not None, "reason": reason}]
