"""Span tracer that wraps layer entry points from outside the package.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces
each probed function on the class that defines it, or -- for module
functions -- in every loaded module that bound it (``from x import f``
copies the reference, so patching only the defining module would miss
those callers).  :meth:`Tracer.uninstall` puts every original back.

Two modes share one set of probes:

* ``timed=False`` counts calls and runs the result hooks, with no
  clock reads -- the reference pass whose counts the timed pass must
  reproduce;
* ``timed=True`` also records spans.  A span's self time is its
  duration minus the durations of the probed spans it directly
  encloses; per group, ``outer_s`` sums only the outermost spans, so a
  group's share of a pass never double counts nested calls.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Stat:
    """Everything one probe recorded."""

    calls: int = 0
    self_s: float = 0.0
    #: Summed duration of the outermost spans of this probe only.
    outer_s: float = 0.0
    durations: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class Probe:
    """One entry point to wrap.

    ``owner`` is a class or a module and ``attr`` the attribute on it.
    ``on_call(args)`` may return a token handed to
    ``on_return(tracer, token, args, result)`` after the call; both run
    in either mode so count-derived metrics match between passes.
    """

    name: str
    group: str
    owner: Any
    attr: str
    on_call: Optional[Callable[[tuple], Any]] = None
    on_return: Optional[Callable[["Tracer", Any, tuple, Any], None]] = None


class Tracer:
    """Wraps :class:`Probe` targets and aggregates their spans."""

    def __init__(self, probes: List[Probe], timed: bool):
        self.probes = probes
        self.timed = timed
        self.stats: Dict[str, Stat] = {p.name: Stat() for p in probes}
        self.group_outer_s: Dict[str, float] = {}
        #: Free-form counters the result hooks accumulate.
        self.counters: Dict[str, float] = {}
        self._depth: Dict[str, int] = {}
        self._stack: List[List[float]] = []
        self._paused = False
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- accounting ------------------------------------------------------------

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def calls(self) -> Dict[str, int]:
        return {name: stat.calls for name, stat in self.stats.items()}

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run benchmark-side code (output checks) without recording."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        stat = self.stats[probe.name]
        own_depth = [0]
        group = probe.group
        clock = time.perf_counter
        tracer = self

        if not self.timed:
            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                if tracer._paused:
                    return fn(*args, **kwargs)
                stat.calls += 1
                token = probe.on_call(args) if probe.on_call else None
                result = fn(*args, **kwargs)
                if probe.on_return:
                    probe.on_return(tracer, token, args, result)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer._paused:
                return fn(*args, **kwargs)
            stat.calls += 1
            token = probe.on_call(args) if probe.on_call else None
            children = [0.0]
            tracer._stack.append(children)
            outer_group = tracer._depth.get(group, 0) == 0
            tracer._depth[group] = tracer._depth.get(group, 0) + 1
            own_depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._stack.pop()
                tracer._depth[group] -= 1
                own_depth[0] -= 1
                stat.self_s += elapsed - children[0]
                if own_depth[0] == 0:
                    stat.outer_s += elapsed
                stat.durations.append(elapsed)
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                if outer_group:
                    tracer.group_outer_s[group] = (
                        tracer.group_outer_s.get(group, 0.0) + elapsed)
            if probe.on_return:
                probe.on_return(tracer, token, args, result)
            return result
        return traced

    def install(self) -> None:
        for probe in self.probes:
            original = probe.owner.__dict__[probe.attr]
            wrapped = self._wrap(probe, original)
            if isinstance(probe.owner, type):
                self._restore.append((probe.owner, probe.attr, original))
                setattr(probe.owner, probe.attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                for name, value in list(getattr(module, "__dict__",
                                                {}).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
