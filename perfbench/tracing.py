"""Spans and counters recorded from outside the program.

The benchmark wraps public functions of ``promptmt`` modules for the length
of a traced phase and restores them afterwards; nothing under ``src/``
knows about it. Every wrapped name must exist: a missing or renamed target
raises ``TraceError`` at install time, and a target that a workload expects
to run but that records no call raises at the end, so a refactor cannot
silently drop a layer from the trace.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span or -1, and ``op`` identifies the benchmark operation
(a train step, a translate request, an encoded sentence) that caused it.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict


class TraceError(RuntimeError):
    """A trace target is missing, or a layer expected to run recorded
    nothing."""


def resolve(owner, attr: str):
    target = getattr(owner, attr, None)
    if target is None or not callable(target):
        where = getattr(owner, "__name__", repr(owner))
        raise TraceError(f"trace target {where}.{attr} is missing or not "
                         "callable; update the targets in perfbench/workloads.py")
    return target


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.op = -1
        self.paused = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, name: str, replacement):
        original = resolve(owner, attr)
        self._originals[name] = original
        targets = [owner]
        if isinstance(owner, type(sys)):
            # names imported with ``from module import name`` are bound in
            # the importing module too; patch every binding of the object
            targets += [m for key, m in list(sys.modules.items())
                        if (key == "promptmt" or key.startswith("promptmt."))
                        and m is not owner
                        and getattr(m, attr, None) is original]
        for target in targets:
            self._undo.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, replacement)

    def span(self, owner, attr: str, name: str, before=None, after=None):
        """Record a span around every call of ``owner.attr``.

        ``before(args, kwargs)`` runs ahead of the span and ``after(args,
        kwargs, result)`` after it closes; both run untimed."""
        original = resolve(owner, attr)

        def wrapper(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
                self.calls[name] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, name, wrapper)

    def counter(self, owner, attr: str, name: str):
        """Count calls of ``owner.attr`` without timing them."""
        original = resolve(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self.paused:
                counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, name, wrapper)

    @contextlib.contextmanager
    def operation(self, name: str = "op"):
        """A root span around one benchmark operation; spans opened inside
        it carry its operation id."""
        self.op += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, self.op)

    def original(self, name: str):
        return self._originals[name]

    def uninstall(self):
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    @contextlib.contextmanager
    def pause(self):
        prev, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = prev

    # -- analysis ----------------------------------------------------------

    def require_calls(self, names):
        silent = [n for n in names if self.calls[n] == 0]
        if silent:
            raise TraceError(f"traced layers recorded no call: {silent}")

    def totals(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        return inclusive, self_time

    def child_time(self, parent_names) -> float:
        """Summed duration of the spans directly below any span named in
        ``parent_names``, which is all span self time beneath them."""
        parents = set(parent_names)
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent >= 0 and self.spans[parent][0] in parents)

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts), "calls": dict(self.calls)}
