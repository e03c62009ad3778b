"""Spans and counts recorded around calls into the program's public functions.

The traced run wraps functions of ``ofs`` at run time, from this file; the
program's sources are not changed. A span is (id, parent, name, start,
end); it is opened and closed on one thread, and its parent is the span
open on that thread when it began. A learner's ``update`` is too frequent
for a span each: its durations are kept as samples, for the median and
the 99th percentile, and charged to the enclosing span as child time.
Calls more frequent still (a heap offer, a parsed line, a dot product) are
summed per name as calls and seconds.

Everything stays in memory until :meth:`Tracer.write` runs at the end.
"""
from __future__ import annotations

import contextlib
import itertools
import threading
import time
from array import array
from collections import Counter
from typing import Dict, List

_clock = time.perf_counter
PARSE = "data.parse_line"


class _Thread:
    """Per-thread state, so no lock is taken on the hot path."""

    __slots__ = ("stack", "leaf", "counts", "samples")

    def __init__(self):
        self.stack: List[list] = []
        self.leaf: Dict[str, list] = {}
        self.counts: Counter = Counter()
        self.samples: Dict[str, array] = {}


class Tracer:
    """In-memory spans, leaf-call totals and counters."""

    def __init__(self):
        # closed spans: (id, parent, name, start, end, child_s, parse_s)
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: List[_Thread] = []
        self._lock = threading.Lock()

    def _mine(self) -> _Thread:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _Thread()
            with self._lock:
                self._threads.append(st)
        return st

    def begin(self, name: str) -> list:
        stack = self._mine().stack
        parent = stack[-1][0] if stack else None
        # frame: id, parent, name, start, child seconds, parse seconds
        frame = [next(self._ids), parent, name, _clock(), 0.0, 0.0]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        t1 = _clock()
        stack = self._mine().stack
        stack.pop()
        if stack:
            stack[-1][4] += t1 - frame[3]
        self.spans.append((frame[0], frame[1], frame[2], frame[3], t1, frame[4], frame[5]))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def leaf(self, name: str, seconds: float) -> None:
        st = self._mine()
        agg = st.leaf.get(name)
        if agg is None:
            agg = st.leaf[name] = [0, 0.0]
        agg[0] += 1
        agg[1] += seconds
        if name == PARSE and st.stack:
            st.stack[-1][5] += seconds

    def sample(self, name: str, seconds: float) -> None:
        st = self._mine()
        durations = st.samples.get(name)
        if durations is None:
            durations = st.samples[name] = array("d")
        durations.append(seconds)
        if st.stack:
            st.stack[-1][4] += seconds

    def count(self, name: str, n: int = 1) -> None:
        self._mine().counts[name] += n

    # -- read-out ---------------------------------------------------------

    def leaf_totals(self, name: str):
        """(calls, seconds) of a leaf call, summed over threads."""
        calls, secs = 0, 0.0
        for st in self._threads:
            c, s = st.leaf.get(name, (0, 0.0))
            calls += c
            secs += s
        return calls, secs

    def counter(self, name: str) -> int:
        return sum(st.counts.get(name, 0) for st in self._threads)

    def durations(self, name: str) -> List[float]:
        """Durations of the spans, or else the samples, of that name."""
        spans = [s[4] - s[3] for s in self.spans if s[2] == name]
        return spans or [t for st in self._threads for t in st.samples.get(name, ())]

    def write(self, path) -> None:
        """Spans as CSV (microseconds from the first span), then leaf totals."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,name,start_us,end_us,child_us,parse_us\n")
            for sid, parent, name, a, b, child, parse in self.spans:
                fh.write(
                    f"{sid},{parent or ''},{name},{(a - t0) * 1e6:.1f},{(b - t0) * 1e6:.1f},"
                    f"{child * 1e6:.1f},{parse * 1e6:.1f}\n"
                )
            fh.write("# summed,calls,seconds\n")
            for name in sorted({n for st in self._threads for n in st.leaf}):
                calls, secs = self.leaf_totals(name)
                fh.write(f"# {name},{calls},{secs!r}\n")
            for name in sorted({n for st in self._threads for n in st.samples}):
                d = self.durations(name)
                fh.write(f"# {name},{len(d)},{sum(d)!r}\n")


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs; a span costs one call."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Instrumentation:
    """Installs tracing wrappers on ``ofs`` and removes them again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[tuple] = []

    def _patch(self, owner, attr: str, wrap) -> None:
        # a KeyError here means the program renamed or removed a traced
        # function: the benchmark must follow in the same change
        orig = vars(owner)[attr]
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrap(orig))

    def __enter__(self) -> "Instrumentation":
        from ofs import core, data, learners, pipeline, topb

        tr = self.tracer
        for mod in (learners, core):
            self._patch(mod, "sparse_dot", lambda f: _leaf_call(tr, "core.sparse_dot", f))
        self._patch(data, "parse_libsvm_line", lambda f: _parse(tr, f))
        self._patch(learners, "truncate", lambda f: _leaf_call(tr, "learners.truncate", f))
        for name in ("save_model", "load_model"):
            self._patch(learners, name, lambda f, n=name: _span_call(tr, f"learners.{n}", f))
        for name in ("train_stream", "evaluate", "benchmark_sweep"):
            self._patch(pipeline, name, lambda f, n=name: _span_call(tr, f"pipeline.{n}", f))
        for cls in (learners.SofsModel, learners.ArowModel, learners.PetModel, learners.OgdModel):
            self._patch(cls, "update", lambda f, a=cls.algo: _update(tr, a, f))
        self._patch(topb.TopBTracker, "offer", lambda f: _offer(tr, f))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


def _span_call(tr: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        frame = tr.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end(frame)

    return wrapper


def _leaf_call(tr: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tr.leaf(name, _clock() - t0)

    return wrapper


def _parse(tr: Tracer, fn):
    def wrapper(*args, **kwargs):
        t0 = _clock()
        ex = fn(*args, **kwargs)
        tr.leaf(PARSE, _clock() - t0)
        if ex is not None:
            tr.count("data.pairs", len(ex.indices))
        return ex

    return wrapper


def _update(tr: Tracer, algo: str, fn):
    name = f"learners.update.{algo}"
    mistake_driven = algo == "pet"

    def wrapper(self, ex):
        tracker = getattr(self, "tracker", None)
        before = getattr(tracker, "comparisons", 0)
        t0 = _clock()
        try:
            margin = fn(self, ex)
        finally:
            tr.sample(name, _clock() - t0)
        y = ex.label
        if mistake_driven:
            changed = (1 if margin >= 0.0 else -1) != y
        else:
            changed = y * margin < 1.0 and len(ex.indices) > 0
        if changed:
            tr.count(f"learners.updates.{algo}")
        if tracker is not None:
            tr.count("topb.comparisons", getattr(tracker, "comparisons", 0) - before)
        return margin

    return wrapper


def _offer(tr: Tracer, fn):
    def wrapper(self, idx, value):
        t0 = _clock()
        out = fn(self, idx, value)
        tr.leaf("topb.offer", _clock() - t0)
        tr.count(f"topb.{out[0].value}")
        return out

    return wrapper
