"""Spans recorded from the benchmark's side of each layer boundary.

The traced run wraps methods of the objects the benchmark builds and
hands to the program (engine, warehouse, synopses, the WAL) and, for
the cluster, the coordinator module's partition/encode/gather
functions.  Nothing inside the program is instrumented: a layer's
time is what the benchmark sees between entering and leaving a call
into it.

A span is ``(request, name, parent, start, end)``.  Every span belongs
to the request open when it started; ``parent`` is the enclosing span
on the same thread, or the request's root span for work started on
another thread (the coordinator's per-shard pool).  A layer's *self
time* is its span's duration minus what its children cover.
Overlapping siblings (two shards' encodes running at once) are
attributed in start order, so that time both threads spend together
counts once and the self times of one request always sum to its root
span's duration.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    """One timed call into a layer."""

    request: int
    name: str
    parent: int  # index into the recorder's spans; -1 for a root
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self._open: dict[int, tuple[int, str, int, float]] = {}
        self._done: list[Span | None] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request = -1
        self._root = -1
        self._installed: list[tuple[Any, str, bool, Any]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        """Open a span; a span opened with no request open is a root."""
        stack = self._stack()
        with self._lock:
            index = len(self._done)
            self._done.append(None)
            if stack:
                parent = stack[-1]
            elif self._root >= 0:
                parent = self._root
            else:
                parent = -1
                self._request += 1
                self._root = index
            self._open[index] = (self._request, name, parent, self.clock())
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span ``begin`` returned."""
        now = self.clock()
        stack = self._stack()
        stack.pop()
        with self._lock:
            request, name, parent, start = self._open.pop(index)
            self._done[index] = Span(request, name, parent, start, now)
            if index == self._root:
                self._root = -1

    @property
    def spans(self) -> list[Span]:
        """Every span, in start order; ``parent`` indexes this list."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return list(self._done)  # type: ignore[arg-type]

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` as a span ``name``.

        ``owner`` is an object or a module; the wrapper shadows the
        attribute until :meth:`unwrap_all` restores it.
        """
        inner = getattr(owner, attribute)
        had_own = attribute in vars(owner)
        previous = vars(owner).get(attribute)
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                end(index)

        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, had_own, previous))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attribute, had_own, previous = self._installed.pop()
            if had_own:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)


class TraceSwitch:
    """Installs a recorder's wrappers for traced loop iterations only.

    The traced run alternates untraced and traced iterations, so the
    trace overhead is measured against requests that ran under the same
    host conditions.
    """

    def __init__(
        self, recorder: SpanRecorder, install: Callable[[SpanRecorder], None]
    ) -> None:
        self.recorder = recorder
        self._install = install
        self._on = False

    def set(self, on: bool) -> SpanRecorder | None:
        """Switch tracing on or off; returns the recorder while on."""
        if on and not self._on:
            self._install(self.recorder)
        elif self._on and not on:
            self.recorder.unwrap_all()
        self._on = on
        return self.recorder if on else None


@dataclass
class RequestProfile:
    """One request's spans folded per layer name."""

    root: str
    duration: float
    self_time: dict[str, float]
    total_time: dict[str, float]
    calls: dict[str, int]


def profile_requests(spans: list[Span]) -> list[RequestProfile]:
    """Fold a recorder's spans into one profile per request.

    A span's interval is clipped to its parent's clipped interval and
    to its earlier-starting siblings; its self time is that clipped
    interval minus its children's.  The self times of one request
    therefore sum to its root span's duration exactly.
    """
    children: dict[int, list[int]] = defaultdict(list)
    roots = []
    for index, span in enumerate(spans):
        if span.parent < 0:
            roots.append(index)
        else:
            children[span.parent].append(index)
    profiles = []
    for root in roots:
        span = spans[root]
        profile = RequestProfile(
            span.name, span.duration, defaultdict(float),
            defaultdict(float), defaultdict(int),
        )
        pending = [(root, span.start, span.end)]
        while pending:
            index, low, high = pending.pop()
            node = spans[index]
            profile.total_time[node.name] += node.duration
            profile.calls[node.name] += 1
            covered = 0.0
            frontier = low
            for child in sorted(children[index], key=lambda c: spans[c].start):
                start = max(spans[child].start, frontier)
                # A child wholly shadowed by an overlapping sibling keeps
                # its call but adds no time of its own.
                end = max(start, min(spans[child].end, high))
                pending.append((child, start, end))
                covered += end - start
                frontier = max(frontier, end)
            profile.self_time[node.name] += (high - low) - covered
        profiles.append(profile)
    return profiles
