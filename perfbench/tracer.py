"""Spans around the public functions of each quantrules module.

The package has no instrumentation of its own, so the tracer replaces each
traced function with a wrapper everywhere a quantrules module binds it
(``bounds.f1_score`` and ``violations.f1_score`` as well as
``statistics.f1_score``), and restores the originals on exit. Each span
records its name, thread, start, end and parent span. Spans live in one
list per thread, so threads never share a list. A span opened on a worker
thread with nothing open on that thread takes as parent the span open on
the thread that entered the tracer (the ``learn_and_select`` call that
started the pool).
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module.attr`` or ``module.Class.attr``."""

    label: str
    module: str
    attr: str
    count: object = None  # result -> number added to the span's value


def _n_rows(dataset):
    return dataset.n_rows


TARGETS = (
    Target("dataset.load_table", "quantrules.dataset", "load_table", _n_rows),
    Target("dataset.sample_minibatches", "quantrules.dataset",
           "sample_minibatches", len),
    Target("statistics.load_boxes", "quantrules.statistics", "load_boxes", _n_rows),
    Target("statistics.f1_score", "quantrules.statistics", "f1_score"),
    Target("statistics.sample_values", "quantrules.statistics", "sample_values"),
    Target("statistics.registry_build", "quantrules.statistics",
           "StatisticRegistry.from_dataset"),
    Target("schema.parse", "quantrules.schema", "parse_schema"),
    Target("schema.enumerate", "quantrules.schema", "enumerate_abstract_rules", len),
    Target("bounds.learn_and_select", "quantrules.bounds", "learn_and_select"),
    Target("bounds.collect_statistics", "quantrules.bounds", "collect_statistics"),
    Target("bounds.s1_bucket_interval", "quantrules.bounds", "s1_bucket_interval"),
    Target("violations.evaluate", "quantrules.violations", "evaluate"),
    Target("violations.check_rule", "quantrules.violations", "check_rule"),
    Target("violations.write_report", "quantrules.violations", "write_report"),
    Target("violations.batch_violation_count", "quantrules.violations",
           "batch_violation_count"),
    Target("adaptation.adapt", "quantrules.adaptation", "adapt"),
    Target("adaptation.forward_batch", "quantrules.adaptation", "forward_batch"),
    Target("adaptation.total_loss_grad", "quantrules.adaptation", "total_loss_grad"),
    Target("model.forward", "quantrules.model", "SoftmaxModel.forward"),
    Target("model.backward", "quantrules.model", "SoftmaxModel.backward"),
    Target("model.predict_columns", "quantrules.model", "SoftmaxModel.predict_columns"),
    Target("model.fit", "quantrules.model", "SoftmaxModel.fit"),
    Target("rules_io.save_rules", "quantrules.rules_io", "save_rules"),
    Target("rules_io.load_rules", "quantrules.rules_io", "load_rules"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    value: float | None = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Context manager: patches the targets on entry, restores them on exit.

    ``missing`` lists the targets that could not be found, so a renamed
    function shows up as a gap instead of an error.
    """

    def __init__(self, targets=TARGETS):
        self._targets = targets
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists = []
        self._patches = []
        self._home_thread = None
        self._home_stack = None
        self.missing = []

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])  # open span ids, finished spans
            with self._lock:
                self._lists.append(state[1])
            self._local.state = state
        return state

    def _record(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = tracer._thread_state()
            thread = threading.get_ident()
            home = tracer._home_stack
            if stack:
                parent = stack[-1]
            elif thread != tracer._home_thread and home:
                parent = home[-1]  # a pool thread: the span that started the pool
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            value = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    value = count(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(sid, parent, name, thread, start, end, value))

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the caller itself, e.g. around one CLI command."""
        stack, spans = self._thread_state()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            stack.pop()
            spans.append(Span(sid, parent, name, threading.get_ident(), start,
                              perf_counter()))

    def spans(self):
        with self._lock:
            lists = list(self._lists)
        return sorted((s for spans in lists for s in spans), key=lambda s: s.start)

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        self._home_thread = threading.get_ident()
        self._home_stack = self._thread_state()[0]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "quantrules" or n.startswith("quantrules.")]
        for target in self._targets:
            self._patch(target, modules)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, target, modules):
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            self.missing.append(target.label)
            return
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # vars() keeps a classmethod object as it is, where getattr would bind it
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(target.label)
            return
        if isinstance(raw, classmethod):  # e.g. StatisticRegistry.from_dataset
            wrapped = classmethod(self._record(target.label, raw.__func__, target.count))
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        wrapped = self._record(target.label, raw, target.count)
        if path:  # a method: callers look it up on the class
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        for module in modules:  # every module-level binding of the function
            for name, value in list(vars(module).items()):
                if value is raw:
                    self._patches.append((module, name, raw))
                    setattr(module, name, wrapped)


# -- aggregation -------------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans):
    """Per span name: calls, summed time, summed self time, summed value.

    Summed time adds durations across threads, so it is busy time and can
    exceed wall time when the pool runs. Self time is a span's duration
    minus the part of it that its direct children cover.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "time": 0.0, "self": 0.0,
                                      "value": 0})
        row["calls"] += 1
        row["time"] += s.duration
        row["self"] += s.duration - _covered(children.get(s.id, ()), s.start, s.end)
        if s.value is not None:
            row["value"] += s.value
    return out


def iteration_times(spans, loop="adaptation.adapt", step="adaptation.forward_batch"):
    """Seconds between successive ``step`` starts inside each ``loop`` span;
    the last step of a loop runs to the loop's end."""
    loops = {s.id: s for s in spans if s.name == loop}
    starts = {}
    for s in spans:
        if s.name == step and s.parent in loops:
            starts.setdefault(s.parent, []).append(s.start)
    gaps = []
    for lid, times in starts.items():
        times = sorted(times) + [loops[lid].end]
        gaps.extend(np.diff(times))
    return np.asarray(gaps, dtype=float)
