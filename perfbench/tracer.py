"""An in-memory span tracer that wraps functions from outside the program.

:meth:`Tracer.wrap` returns a wrapper that records one span per call:
metric name, start, end, the enclosing span (the span that caused it)
and the replication index current when it opened.  A name's self time
is its spans' durations minus the time of wrapped calls nested inside
them.  :meth:`Tracer.install` swaps a wrapper into every site that
holds the original callable and :meth:`Tracer.restore` swaps the
originals back, in reverse order.

Spans stay in memory until :meth:`Tracer.write` exports them.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Counts the initiators (or other work units) of one call from its
#: positional and keyword arguments.
CountFn = Callable[[tuple, dict], int]


#: What an attribute site holds when the owner does not define the name
#: itself (a method inherited from a base class).
MISSING = object()


class Site:
    """A slot holding a callable: a module or class attribute, or any
    get/set pair (e.g. a registry entry)."""

    def __init__(self, label: str, get: Callable[[], Any], set: Callable[[Any], None]):
        self.label = label
        self.get = get
        self.set = set

    @classmethod
    def attr(cls, owner: Any, name: str) -> "Site":
        """``owner.name`` as ``owner`` itself defines it.  An inherited
        method reads as :data:`MISSING`: a wrapper set there shadows the
        base class's method for ``owner`` alone, and restoring
        :data:`MISSING` deletes the shadow again."""

        def set_(value: Any) -> None:
            if value is MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, value)

        return cls(
            f"{getattr(owner, '__name__', owner)!s}.{name}",
            lambda: vars(owner).get(name, MISSING),
            set_,
        )


class Tracer:
    """Span log plus per-name self time, call counts and work counts."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.counts: Dict[str, int] = {}
        #: ``(name_id, t0, t1, parent_span_or_-1, rep)`` per closed span,
        #: indexed by opening order.
        self.spans: List[Optional[Tuple[int, float, float, int, int]]] = []
        #: Replication index stamped on spans as they open; the caller
        #: advances it as replications complete.
        self.rep = -1
        self._open: List[List[float]] = []
        self._installed: List[Tuple[Site, Any]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Optional[Tuple[str, CountFn]] = None,
    ) -> Callable:
        """A wrapper around ``fn`` that records a span named ``name``;
        ``count=(counter, fn)`` also adds ``fn(args, kwargs)`` to
        ``counts[counter]`` on every call."""
        sid = self._id(name)
        spans, stack = self.spans, self._open
        self_s, calls = self.self_s, self.calls
        if count is not None:
            self.counts.setdefault(count[0], 0)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                tracer.counts[count[0]] += count[1](args, kwargs)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            rep = tracer.rep
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                self_s[sid] += duration - frame[1]
                calls[sid] += 1
                if stack:
                    stack[-1][1] += duration
                spans[index] = (sid, t0, t1, parent, rep)

        return traced

    def install(self, sites: List[Site], wrapper: Callable) -> None:
        """Put ``wrapper`` into every site, remembering each original."""
        for site in sites:
            self._installed.append((site, site.get()))
            site.set(wrapper)

    def restore(self) -> List[str]:
        """Put every original back (last installed first); returns the
        labels of sites that do not hold their original afterwards."""
        installed, self._installed = self._installed, []
        for site, original in reversed(installed):
            site.set(original)
        return [site.label for site, original in installed if site.get() is not original]

    @property
    def installed(self) -> int:
        return len(self._installed)

    def self_ms(self, name: str) -> float:
        """Total self time of ``name`` in ms (0 if it never ran)."""
        sid = self._ids.get(name)
        return 0.0 if sid is None else self.self_s[sid] * 1e3

    def call_count(self, name: str) -> int:
        sid = self._ids.get(name)
        return 0 if sid is None else self.calls[sid]

    def write(self, path: str, meta: Dict[str, Any]) -> int:
        """Export the spans as JSON lines: one header object (``meta``
        plus the name table and column order), then one array per span
        in opening order; returns the span count."""
        closed = [span for span in self.spans if span is not None]
        epoch = min((span[1] for span in closed), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            header = {
                **meta,
                "names": self.names,
                "columns": ["name", "start_ms", "wall_ms", "parent", "rep"],
            }
            out.write(json.dumps(header) + "\n")
            for sid, t0, t1, parent, rep in closed:
                row = [sid, round((t0 - epoch) * 1e3, 4), round((t1 - t0) * 1e3, 4), parent, rep]
                out.write(json.dumps(row) + "\n")
        return len(closed)
