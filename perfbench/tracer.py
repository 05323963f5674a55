"""In-memory span tracer for the public functions of the ``lvwaves`` package.

A span is (name, start, end, parent).  ``Tracer.install`` wraps every public
function of every ``lvwaves`` module, and every public method of the public
classes defined there, and rebinds the wrapper in *every* ``lvwaves``
namespace that holds the original.  Modules import each other's functions by
name (``hypotheses`` calls its own binding of ``classify_regime``), so
wrapping only the defining module would miss those calls.

Spans are appended to flat arrays while the traced code runs and turned into
per-name self times afterwards: a span's self time is its duration minus the
time covered by its direct children.  The benchmark opens its own spans
around the calls it makes (``Tracer.span``), so the self times of all spans
in an iteration add up to the iteration's wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from enum import Enum

import numpy as np

PACKAGE = "lvwaves"


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _public_callables(mod):
    """(qualified name, owner, attribute, original) for each traced callable."""
    short = mod.__name__.rpartition(".")[2]
    out = []
    for attr, value in vars(mod).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(value):
            out.append((f"{short}.{attr}", mod, attr, value))
        elif inspect.isclass(value) and not issubclass(value, (Enum, BaseException)):
            for meth, raw in vars(value).items():
                if meth.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    out.append((f"{short}.{attr}.{meth}", value, meth, raw))
    return out


class Tracer:
    """Records spans of the wrapped package functions and of benchmark phases.

    ``hooks`` maps a span name to ``hook(tracer, args, result)``; a hook runs after the
    span closes and derives counts from public arguments and return values
    (bytes of a CSV file, sweeps of a solve), adding them to ``counters``.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        # wrappers hold this list, so reset() clears it in place
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (between iterations)."""
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        del self._stack[1:]
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        nid = self._id(name)
        hook = self.hooks.get(name)
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.name_ids)
            tracer.name_ids.append(nid)
            tracer.parents.append(stack[-1])
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the package's public callables in every namespace binding them."""
        modules = _package_modules()
        wrappers = {}
        for mod in modules:
            for name, owner, attr, raw in _public_callables(mod):
                if inspect.isclass(owner):
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._patched.append((owner, attr, raw))
                    setattr(owner, attr, new)
                else:
                    wrappers[id(raw)] = (raw, self._wrap(name, raw))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def span(self, name: str) -> "_Span":
        return _Span(self, self._id(name))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self) -> "SpanTable":
        return SpanTable(
            names=list(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            parents=np.frombuffer(self.parents, dtype=np.int32).copy(),
            starts=np.frombuffer(self.starts, dtype=np.float64).copy(),
            ends=np.frombuffer(self.ends, dtype=np.float64).copy(),
            counters=dict(self.counters),
        )


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.name_ids)
        t.name_ids.append(self.nid)
        t.parents.append(t._stack[-1])
        t.ends.append(0.0)
        t._stack.append(self.idx)
        t.starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.ends[self.idx] = time.perf_counter()
        t._stack.pop()
        return False


class NullTracer:
    """Stands in for :class:`Tracer` in untraced iterations."""

    def span(self, name: str):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class SpanTable:
    """The spans of one traced iteration as arrays, with self-time queries."""

    def __init__(self, names, name_ids, parents, starts, ends, counters):
        self.names = names
        self.name_ids = name_ids
        self.parents = parents
        self.starts = starts
        self.ends = ends
        self.counters = counters
        n = len(name_ids)
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self.self_time = dur - child
        k = len(names)
        self.self_by_name = np.bincount(name_ids, weights=self.self_time, minlength=k)
        self.total_by_name = np.bincount(name_ids, weights=dur, minlength=k)
        self.calls_by_name = np.bincount(name_ids, minlength=k)

    def _nid(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def self_s(self, name: str) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else float(self.self_by_name[nid])

    def total_s(self, name: str) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else float(self.total_by_name[nid])

    def calls(self, name: str) -> int:
        nid = self._nid(name)
        return 0 if nid is None else int(self.calls_by_name[nid])

    def calls_under(self, ancestor: str, name: str) -> int:
        """Calls of ``name`` made anywhere inside a span of ``ancestor``.

        Spans are stored in start order, so the descendants of span i are
        the contiguous run of spans that start before span i ends.
        """
        anc, nid = self._nid(ancestor), self._nid(name)
        if anc is None or nid is None:
            return 0
        roots = np.nonzero(self.name_ids == anc)[0]
        last = np.searchsorted(self.starts, self.ends[roots], side="left")
        hits = np.concatenate(([0], np.cumsum(self.name_ids == nid)))
        return int(np.sum(hits[last] - hits[roots + 1]))

    def by_name(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "calls": int(self.calls_by_name[i]),
                "self_s": float(self.self_by_name[i]),
                "total_s": float(self.total_by_name[i]),
            }
            for i, name in enumerate(self.names)
            if self.calls_by_name[i]
        }
