"""The two plug-in structures every surface resolves names through.

A :class:`Registry` is a name catalogue — engines, traffic patterns,
mappers, partitioners.  A :class:`Ladder` is an availability
ladder — the vector engine's kernel backends, the partitioners: rungs
probed at most once per process, ``auto`` taking the first that can run
here, and kill / pin switches re-read from the environment on every
resolution so a test or a CI job can flip them between calls.
"""

from __future__ import annotations

import os
from typing import Any, Callable

#: Kill-switch values that mean "on"; ``0``, ``false`` or empty mean off.
_ON = ("1", "true", "yes", "on")


def _switch(name: str) -> str:
    return os.environ.get(name, "").strip().lower()


class Registry:
    """Entries filed by name under a decorator.

    ``load`` imports the modules holding the decorators, once, before the
    first lookup; ``order`` names are listed first, the rest sorted.  A
    duplicate or an unknown name raises ``error``, the latter listing the
    known names.
    """

    def __init__(self, kind: str, error: type[Exception], load: Callable, order=()):
        self.kind, self.error, self.load, self.order = kind, error, load, order
        self._entries: dict[str, Any] = {}
        self._names: tuple[str, ...] | None = None
        self._loaded = False

    def add(self, name: str, entry: Any) -> None:
        if name in self._entries:
            raise self.error(f"{self.kind} {name!r} is already registered")
        self._entries[name] = entry
        self._names = None

    def remove(self, name: str) -> None:
        del self._entries[name]
        self._names = None

    def register(self, name: str, entry: Callable | None = None) -> Callable:
        """Decorator filing ``entry(obj)`` (``obj`` by default); returns ``obj``."""

        def decorate(obj):
            self.add(name, obj if entry is None else entry(obj))
            return obj

        return decorate

    def get(self, name: str) -> Any:
        if not self._loaded:
            self.names()
        try:
            return self._entries[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; known: {', '.join(self.names())}"
            ) from None

    def names(self) -> tuple[str, ...]:
        if not self._loaded:
            self.load()
            self._loaded = True
        if self._names is None:
            first = [name for name in self.order if name in self._entries]
            self._names = (*first, *sorted(self._entries.keys() - set(first)))
        return self._names


class Ladder:
    """Rungs tried best first.

    ``probes`` maps a rung to a ``probe()`` returning ``(value, reason)``,
    value ``None`` when it cannot run here; it is called at most once per
    process and its outcome kept in :attr:`cache`.  ``order`` is what
    ``auto`` walks and :meth:`rows` reports; a rung there with no probe is
    pure python, always available.  The ``kill`` switch disables every
    probed rung, as does the ``pin`` switch set to ``off``; set to a rung
    it resolves that rung instead of ``auto``.  ``logger``, if given, hears
    once per process that ``auto`` fell past a rung.
    """

    def __init__(self, kind, probes, order, *, kill, pin=None, logger=None):
        self.kind, self.probes, self.order = kind, probes, order
        self.kill, self.pin, self.logger = kill, pin, logger
        self.cache: dict[str, tuple[Any, str]] = {}
        self._warned = False

    def probe(self, rung: str) -> tuple[bool, Any, str]:
        """``(available, value, reason)`` for one rung, switches read first."""
        return self._probe(rung, self._switches()[1])

    def rows(self, rungs=None) -> list[dict]:
        """One ``{name, available, reason}`` row per rung (``order`` by default)."""
        off, rows = self._switches()[1], []
        for rung in self.order if rungs is None else rungs:
            available, _, reason = self._probe(rung, off)
            rows.append({"name": rung, "available": available, "reason": reason})
        return rows

    def resolve(self, rung: str = "auto") -> tuple[str | None, Any, str]:
        """``(rung, value, reason)`` for the pinned or requested rung, or the
        first available one for ``auto``; ``(None, None, why)`` if none runs."""
        how = "requested explicitly"
        pinned, off = self._switches()
        if pinned not in ("", "auto", "off"):
            if pinned not in (*self.order, *self.probes):
                return None, None, f"unknown {self.pin} mode {pinned!r}"
            rung, how = pinned, f"pinned by {self.pin}={pinned}"
        if rung != "auto":
            available, value, reason = self._probe(rung, off)
            return (rung, value, how) if available else (None, None, reason)
        skipped, reasons = [], []
        for name in self.order:
            available, value, reason = self._probe(name, off)
            if not available:
                skipped.append(f"{name} ({reason})")
                reasons.append(reason)
                continue
            if not skipped:
                return name, value, "auto ladder, first rung"
            if self.logger is not None and not self._warned:
                self._warned = True
                self.logger.warning(
                    "%s auto-ladder: %s unavailable, falling back to %s",
                    self.kind, ", ".join(skipped), name,
                )
            return name, value, f"auto ladder (skipped: {', '.join(skipped)})"
        return None, None, "; ".join(dict.fromkeys(reasons))

    def _switches(self) -> tuple[str, str | None]:
        """The pin switch's value, and the switch disabling every probed
        rung right now, if any."""
        pinned = _switch(self.pin) if self.pin else ""
        if _switch(self.kill) in _ON:
            return pinned, self.kill
        return pinned, f"{self.pin}=off" if pinned == "off" else None

    def _probe(self, rung: str, off: str | None) -> tuple[bool, Any, str]:
        if rung not in self.probes:
            return True, None, "pure python, always available"
        if off:
            return False, None, f"disabled by {off}"
        if rung not in self.cache:
            self.cache[rung] = self.probes[rung]()
        value, reason = self.cache[rung]
        return value is not None, value, reason
