"""Spans and counters recorded from outside a package, for traced benchmark runs.

A ``Tracer`` replaces module functions and class methods of an imported
package with wrappers and puts the originals back on ``uninstall``. Three kinds
of wrapper exist:

- ``span``: records name, start, end, parent span and a trace id (the group or
  lemma being worked on). Use it at layer boundaries that are called at most a
  few thousand times per pass.
- ``timed``: a call counter plus accumulated seconds, no span. For hot calls
  whose duration still matters (``LatticeBasis.add``). Their time is charged to
  the innermost open span, so it leaves that span's self time.
- ``count``: a call counter only, for the hottest calls (collection,
  multiplication), where even two clock reads would distort the run.
- ``mark``: one clock reading on every n-th call, no counter. Untraced passes
  use it to cut themselves into slices that are the same in every pass.

Spans are kept in memory; the caller reads ``spans`` and ``counts`` when the
pass ends. Everything is single-threaded: a traced pass runs serially.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index of the parent span in Tracer.spans
    trace_id: Optional[str] = None
    hot_s: float = 0.0  # seconds of ``timed`` calls made directly inside this span

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration, minus the part of its interval
    that its child spans cover, minus its direct ``timed`` calls."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if run_end is not None and lo <= run_end:
                run_end = max(run_end, hi)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.duration - covered - s.hot_s)
    return out


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing wrappers -------------------------------------------------

    def _replace(self, owner, attr: str, make: Callable) -> None:
        """Swap ``owner.attr`` for ``make(original)``.

        A module function is also replaced in every module of the package that
        imported it by name, so ``from .multiplier import bar_homology`` call
        sites are traced too. A class attribute is replaced on the class only.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            sites = [(owner, attr)]
        else:
            original = getattr(owner, attr)
            sites = [
                (module, key)
                for name, module in list(sys.modules.items())
                if name == self.package or name.startswith(self.package + ".")
                for key, value in vars(module).items()
                if value is original
            ]
        wrapper = functools.wraps(original)(make(original))
        for target, key in sites:
            self._undo.append((target, key, original))
            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)

    def span(self, owner, attr: str, name: str,
             trace_id: Optional[Callable[..., str]] = None) -> None:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                parent = open_[-1] if open_ else None
                if trace_id is not None:
                    tid = trace_id(*args, **kwargs)
                else:
                    tid = spans[parent].trace_id if parent is not None else None
                s = Span(name, 0.0, parent=parent, trace_id=tid)
                open_.append(len(spans))
                spans.append(s)
                s.start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    s.end = clock()
                    open_.pop()
            return wrapper

        self._replace(owner, attr, make)

    def timed(self, owner, attr: str, name: str) -> None:
        spans, open_ = self.spans, self._open
        counts, seconds = self.counts, self.seconds
        clock = time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    counts[name] += 1
                    seconds[name] += dt
                    if open_:
                        spans[open_[-1]].hot_s += dt
            return wrapper

        self._replace(owner, attr, make)

    def count(self, owner, attr: str, name: str,
              nested: Optional[tuple[str, str]] = None) -> None:
        """Count calls of ``owner.attr``. With ``nested = (inner, into)``, also
        add to counter ``into`` how much counter ``inner`` grew during each call
        (for example, the collections a memoized multiply had to issue)."""
        counts = self.counts

        def make(original):
            if nested is None:
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return original(*args, **kwargs)
            else:
                inner, into = nested

                def wrapper(*args, **kwargs):
                    before = counts[inner]
                    try:
                        return original(*args, **kwargs)
                    finally:
                        counts[name] += 1
                        counts[into] += counts[inner] - before
            return wrapper

        self._replace(owner, attr, make)

    def tally(self, owner, attr: str, name: str, amount: Callable[..., int]) -> None:
        """Add ``amount(*args, **kwargs)``, read before each call, to counter
        ``name`` (for example, the size of a lattice basis when it is used)."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += amount(*args, **kwargs)
                return original(*args, **kwargs)
            return wrapper

        self._replace(owner, attr, make)

    def mark(self, owner, attr: str, every: int, stamps: list[float]) -> None:
        """Append a clock reading to ``stamps`` as every ``every``-th call of
        ``owner.attr`` starts."""
        clock = time.perf_counter
        calls = [0]

        def make(original):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                if calls[0] == every:
                    calls[0] = 0
                    stamps.append(clock())
                return original(*args, **kwargs)
            return wrapper

        self._replace(owner, attr, make)

    # -- reading the trace ---------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``s`` (summed over outermost spans of that
        name, so recursion is not counted twice), ``self_s`` and ``max_s``."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0}
        )
        for i, s in enumerate(self.spans):
            agg = out[s.name]
            agg["calls"] += 1
            agg["self_s"] += selfs[i]
            if not self._has_ancestor_named(i, s.name):
                agg["s"] += s.duration
                agg["max_s"] = max(agg["max_s"], s.duration)
        return out

    def _has_ancestor_named(self, i: int, name: str) -> bool:
        parent = self.spans[i].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False
