"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent, info]``: the layer name, host
``perf_counter`` start and end, the index of the enclosing span (-1 at
top level) and a small dict of counts measured at the boundary (events,
bytes, hit/miss).  Spans live in a list and are written out once, when
the run ends.

:meth:`Tracer.wrap` rebinds a public entry point of the program to a
recording wrapper wherever a loaded module binds it by name, so calls
made inside the program (``run_bench`` calling ``simulate``) are timed
as well as calls made by the benchmark.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections.abc import Callable, Iterator
from typing import Any

Info = Callable[[tuple, dict, Any], dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str, info: dict | None = None) -> Iterator[dict]:
        """Record one span; the yielded dict becomes its ``info``."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, info or {}]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record[4]
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, original: Callable, name: str | Callable,
                 info: Info | None) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as extra:
                result = original(*args, **kwargs)
            # Boundary counts are taken after the span has closed, so
            # their cost lands in the caller, not in the layer.
            if info is not None:
                extra.update(info(args, kwargs, result))
            return result

        return traced

    def wrap(self, owner: Any, attr: str, name: str | Callable,
             info: Info | None = None) -> None:
        """Trace ``owner.attr``.  For a module-level function every
        module that imported it by name is rebound too; for a class
        attribute (a method) the class itself is patched."""
        original = getattr(owner, attr)
        traced = self._wrapper(original, name, info)
        targets = [owner]
        if not isinstance(owner, type):
            targets += [m for m in list(sys.modules.values())
                        if m is not owner
                        and getattr(m, attr, None) is original]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, traced)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
