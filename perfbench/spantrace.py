"""In-memory spans around calls into the program's modules.

The benchmark never edits the program: :meth:`Tracer.install` replaces
named functions and methods with timing wrappers at run time, in the
benchmark's own processes (the load client, and every program process
started through ``launch.py``).  A span records its name, start and
end (``time.perf_counter_ns``, i.e. ``CLOCK_MONOTONIC`` on Linux, so
spans from different processes on one host share a time base), the
enclosing span on the same thread, the request id (the ``?batch=`` id
of the POST being served) and one probe value.  Spans stay in a list
until :meth:`Tracer.dump` writes them out at the end of the run.

A span's self time is its duration minus the part of its interval
that its child spans cover (:func:`covered`; :mod:`layers` applies it).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

#: One recorded span: (id, name, start_ns, end_ns, parent_id, rid,
#: thread_id, value).  ``parent_id`` 0 means no enclosing span.
SpanRow = tuple


@dataclass(frozen=True)
class Target:
    """One program callable to time.

    ``qualname`` is ``function`` or ``Class.method`` inside ``module``.
    ``rid`` extracts a request id from the call's arguments (it then
    sticks to the calling thread until replaced); ``before`` runs just
    before the call and its result is handed to ``probe``, which turns
    ``(args, result, before)`` into the span's probe value.
    """

    span: str
    module: str
    qualname: str
    rid: Callable[[tuple], str | None] | None = None
    before: Callable[[tuple], Any] | None = None
    probe: Callable[[tuple, Any, Any], float] | None = None


class Tracer:
    """Records spans from wrapped callables and manual intervals."""

    def __init__(self) -> None:
        self.spans: list[SpanRow] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def record(self, name: str, start_ns: int, end_ns: int,
               rid: str | None = None, value: float = 0.0) -> None:
        """Append a span measured by the caller (no parent)."""
        self.spans.append((next(self._ids), name, start_ns, end_ns, 0, rid,
                           threading.get_ident(), value))

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """A timing wrapper around ``fn`` recording ``target.span``."""
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter_ns
        get_ident = threading.get_ident
        name = target.span
        rid_of, before, probe = target.rid, target.before, target.probe

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else 0
            if rid_of is not None:
                rid = rid_of(args)
                if rid is not None:
                    local.rid = rid
            state = before(args) if before is not None else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              getattr(local, "rid", None), get_ident(), -1.0))
                raise
            end = clock()
            stack.pop()
            value = (float(probe(args, result, state))
                     if probe is not None else 0.0)
            spans.append((sid, name, start, end, parent,
                          getattr(local, "rid", None), get_ident(), value))
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target in place; :meth:`uninstall` reverses it.

        A plain function is also replaced wherever another loaded
        ``repro`` module imported it by name, so ``from x import f``
        call sites are timed too.
        """
        for target in targets:
            module = importlib.import_module(target.module)
            owner: Any = module
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if path else getattr(module, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self.wrap(target, raw.__func__))
            else:
                wrapped = self.wrap(target, raw)
            self._set(owner, attr, raw, wrapped)
            if not path:
                for name, other in list(sys.modules.items()):
                    if (other is not module and name.startswith("repro")
                            and getattr(other, attr, None) is raw):
                        self._set(other, attr, raw, wrapped)

    def _set(self, owner: Any, attr: str, raw: Any, wrapped: Any) -> None:
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped callable."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- output -------------------------------------------------------------

    def dump(self, path: str | Path) -> None:
        """Write the spans to ``path`` as one JSON document."""
        document = {"pid": os.getpid(), "spans": self.spans}
        Path(path).write_text(json.dumps(document, separators=(",", ":")))


@dataclass(frozen=True, slots=True)
class Span:
    """A span after loading: ids and threads made unique across processes."""

    key: tuple[int, int]
    name: str
    start: int
    end: int
    parent: tuple[int, int] | None
    rid: str | None
    thread: tuple[int, int]
    value: float

    @property
    def duration(self) -> int:
        return self.end - self.start


def spans_from(pid: int, rows: Iterable[Sequence[Any]]) -> list[Span]:
    """Turn one process's recorded rows into :class:`Span` objects."""
    return [Span(key=(pid, row[0]), name=row[1], start=row[2], end=row[3],
                 parent=(pid, row[4]) if row[4] else None, rid=row[5],
                 thread=(pid, row[6]), value=row[7]) for row in rows]


def load_spans(path: str | Path) -> list[Span]:
    """Read one :meth:`Tracer.dump` file."""
    document = json.loads(Path(path).read_text())
    return spans_from(document["pid"], document["spans"])


def covered(start: int, end: int,
            intervals: Iterable[tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    clipped = sorted((max(start, lo), min(end, hi)) for lo, hi in intervals
                     if hi > start and lo < end)
    total = 0
    cursor = start
    for lo, hi in clipped:
        if hi <= cursor:
            continue
        total += hi - max(lo, cursor)
        cursor = hi
    return total
