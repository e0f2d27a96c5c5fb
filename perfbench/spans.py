"""Outside-in span recorder for the ktphase benchmark.

The recorder times calls into named ktphase functions by wrapping them from
outside the package; nothing under ``src/`` changes.  A function is wrapped
in every ktphase namespace that bound it: a module-level function in every
``ktphase.*`` module (``verify`` and ``cli`` import ``lattice`` and
``calc_var`` functions by name), a method under every attribute of its class
that holds it (``Expr.__radd__ is Expr.__add__``).

Each wrapped call is a span.  A stack of open spans keeps the time of child
spans, recursive calls included, out of a span's self time, so the self
times of all spans add up to the time spent inside the outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time


class Stat:
    """Totals of one span name: calls, self and inclusive seconds, named
    counters, and (when asked for) the inclusive duration of every call."""

    __slots__ = ("calls", "self_s", "total_s", "durations", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.durations = []
        self.counters = {}


class Recorder:
    """Spans and counters, kept in memory.

    ``install(targets)`` patches the named functions; ``uninstall()`` puts
    the originals back.  ``targets`` maps a span name
    ``<module>.<qualname>`` (relative to the ``ktphase`` package) to a
    counter function or ``None``.  A counter receives the call's bound
    arguments and its result and returns ``{counter name: amount}``; the
    amounts are summed per span name.  Spans named in ``durations`` also
    keep the inclusive duration of every call, for percentiles.  ``clock``
    is the time source, in seconds.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, counter=None, durations: bool = False):
        """A wrapper of ``fn`` that records each call as a span ``name``;
        with ``durations`` it also keeps each call's inclusive duration."""
        st = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = self.clock
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st.calls += 1
                st.self_s += dt - child
                st.total_s += dt
                if durations:
                    st.durations.append(dt)
                if stack:
                    stack[-1] += dt
            if counter is not None:
                bound = sig.bind(*args, **kwargs).arguments
                for key, amount in counter(bound, out).items():
                    st.counters[key] = st.counters.get(key, 0) + amount
            return out

        return span

    def install(self, targets: dict, durations=()) -> None:
        found = []
        for name, counter in targets.items():
            modname, *path = name.split(".")
            owner = importlib.import_module(f"ktphase.{modname}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            found.append((name, counter, owner, vars(owner)[path[-1]]))
        # after the imports above, so that every module that binds a target is listed
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ktphase" or n.startswith("ktphase."))]
        for name, counter, owner, original in found:
            wrapper = self.wrap(name, original, counter, name in durations)
            namespaces = [owner] if isinstance(owner, type) else modules
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._undo.append((ns, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, original = self._undo.pop()
            setattr(ns, attr, original)

    def take(self) -> dict[str, Stat]:
        """The totals since the last ``take``; the recorder starts again at
        zero.  Must not be called while a span is open."""
        out = {}
        for name, st in self.stats.items():
            snap = Stat()
            snap.calls, snap.self_s, snap.total_s = st.calls, st.self_s, st.total_s
            snap.durations, snap.counters = st.durations, st.counters
            out[name] = snap
            st.calls, st.self_s, st.total_s = 0, 0.0, 0.0
            st.durations, st.counters = [], {}
        return out
