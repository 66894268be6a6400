"""The name catalogue every surface resolves names through.

A :class:`Registry` files engines, traffic patterns, mappers and
partitioners by name under a decorator.
"""

from __future__ import annotations

from typing import Any, Callable


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
