"""In-memory span tracing for the benchmark, installed from the outside.

The program under test carries no tracing of its own.  :class:`Tracer`
swaps chosen class attributes (plain methods) for timing wrappers for the
duration of one ``with tracer.installed(targets):`` block and puts the
originals back afterwards, so untraced calls run the unmodified code.

Every span records a name, a start and an end (``time.perf_counter``), the
index of its parent span (``-1`` for a root) and the id of the benchmark
call it belongs to.  Spans are kept in parallel lists and only turned into
JSON by :meth:`Tracer.export` at the end of a run.  A span's *self* time is
its duration minus the durations of its direct children; because spans of
one thread nest strictly, the self times of all spans under a root sum to
the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

#: ``count(args, result)`` -> iterable of ``(counter name, amount)``.
CountFn = Callable[[tuple, object], Iterable[Tuple[str, float]]]


class Target(NamedTuple):
    """One class attribute to wrap: ``owner.attr`` is recorded as span ``name``."""

    owner: type
    attr: str
    name: str
    count: Optional[CountFn] = None


class Tracer:
    """Records nested spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        self.span_call: List[int] = []
        #: counters keyed by ``(call id, counter name)``.
        self.counters: Dict[Tuple[int, str], float] = defaultdict(float)
        self.call_id = -1
        self._stack: List[int] = []

    # ------------------------------------------------------------ recording
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_call.append(self.call_id)
        self.span_end.append(0.0)
        stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, call_id: Optional[int] = None) -> Iterator[None]:
        """Record the enclosed block as one span (the benchmark's own code).

        ``call_id`` opens a new root for that benchmark call.
        """
        if call_id is not None:
            self.call_id = call_id
        index = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, count: Optional[CountFn] = None) -> Callable:
        """Return ``fn`` wrapped so each invocation records a span ``name``."""
        nid = self._intern(name)
        opener, closer, counters = self._open, self._close, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = opener(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(index)
            if count is not None:
                for key, amount in count(args, result):
                    counters[(self.call_id, key)] += amount
            return result

        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["Tracer"]:
        """Swap every target for its wrapper; restore the originals on exit."""
        saved: List[Tuple[type, str, bool, object]] = []
        try:
            for target in targets:
                raw = inspect.getattr_static(target.owner, target.attr)
                if not isinstance(raw, types.FunctionType):
                    raise TypeError(
                        f"{target.owner.__name__}.{target.attr} is not a plain method"
                    )
                own = target.attr in vars(target.owner)
                saved.append((target.owner, target.attr, own, vars(target.owner).get(target.attr)))
                setattr(target.owner, target.attr, self.wrap(target.name, raw, target.count))
            yield self
        finally:
            for owner, attr, own, original in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # ------------------------------------------------------------- analysis
    def _arrays(self):
        names = np.asarray(self.span_name, dtype=np.int64)
        start = np.asarray(self.span_start, dtype=np.float64)
        end = np.asarray(self.span_end, dtype=np.float64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        call = np.asarray(self.span_call, dtype=np.int64)
        return names, start, end, parent, call

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the direct children's durations."""
        names, start, end, parent, _ = self._arrays()
        duration = end - start
        has_parent = parent >= 0
        child_sum = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration - child_sum

    def layer_table(self, call_ids: Iterable[int]) -> Dict[str, Dict[str, float]]:
        """Per span name: total self seconds and invocations over ``call_ids``."""
        names, start, end, parent, call = self._arrays()
        if not len(names):
            return {}
        keep = np.isin(call, np.fromiter(call_ids, dtype=np.int64))
        own = self.self_times()[keep]
        kept_names = names[keep]
        seconds = np.bincount(kept_names, weights=own, minlength=len(self.names))
        calls = np.bincount(kept_names, minlength=len(self.names))
        return {
            name: {"self_s": float(seconds[i]), "calls": int(calls[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def root_durations(self, call_ids: Iterable[int]) -> Dict[int, float]:
        """Duration of the root span of each call in ``call_ids``."""
        wanted = set(call_ids)
        return {
            self.span_call[i]: self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] < 0 and self.span_call[i] in wanted
        }

    def counter_totals(self, call_ids: Iterable[int]) -> Dict[str, float]:
        """Counter sums over ``call_ids``."""
        wanted = set(call_ids)
        totals: Dict[str, float] = defaultdict(float)
        for (call_id, key), amount in self.counters.items():
            if call_id in wanted:
                totals[key] += amount
        return dict(totals)

    def export(self, path: Path, meta: Dict[str, object], call_ids: Iterable[int]) -> Path:
        """Write the spans and counters of ``call_ids`` as one JSON document.

        Spans are stored column-wise (``name`` indexes ``names``; ``parent``
        indexes the exported span list, ``-1`` for a root).
        """
        wanted = set(call_ids)
        kept = [i for i, call in enumerate(self.span_call) if call in wanted]
        position = {index: pos for pos, index in enumerate(kept)}
        document = {
            "meta": meta,
            "names": self.names,
            "spans": {
                "name": [self.span_name[i] for i in kept],
                "start": [self.span_start[i] for i in kept],
                "end": [self.span_end[i] for i in kept],
                "parent": [position.get(self.span_parent[i], -1) for i in kept],
                "call": [self.span_call[i] for i in kept],
            },
            "counters": [
                {"call": call_id, "name": key, "value": amount}
                for (call_id, key), amount in sorted(self.counters.items())
                if call_id in wanted
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))
        return path
