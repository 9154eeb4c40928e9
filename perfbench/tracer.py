"""In-memory spans around the entry points of each dsgdlab module.

The tracer is installed from outside the package: `instrument` rebinds the
public functions and methods of each module to timing wrappers, so the
program's own code is unchanged. Spans are kept in memory and written once,
when the traced command ends. Every span records its name, start, end and
the span that was open when it started (its parent); seed chunks that run on
pool threads are parented to the dispatching span explicitly.

Times come from `time.monotonic`, which is CLOCK_MONOTONIC on Linux and so is
comparable with timestamps taken in the parent benchmark process.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent=None, end=None, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; each thread keeps its own open stack."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, self.clock(), parent)
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def close(self, span):
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def add(self, name, start, end):
        """Record an already-timed top-level span."""
        self.spans.append(Span(name, start, None, end))

    def wrap(self, name, fn, attrs=None):
        """fn inside a span; attrs(args, kwargs, result) annotates the span
        after it closes, so computing the annotation is not timed."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self):
        """Compact JSON-ready form: a name table and one row per span,
        [name index, start, end, parent row or -1, attrs or null]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        names, name_ids, rows = [], {}, []
        for s in self.spans:
            if s.name not in name_ids:
                name_ids[s.name] = len(names)
                names.append(s.name)
            parent = index.get(id(s.parent), -1) if s.parent is not None else -1
            rows.append([name_ids[s.name], s.start, s.end, parent, s.attrs])
        return {"names": names, "spans": rows}


def load_spans(dump):
    """Inverse of Tracer.dump: Span objects with parents resolved."""
    names = dump["names"]
    spans = [Span(names[n], start, None, end, attrs)
             for n, start, end, _, attrs in dump["spans"]]
    for span, row in zip(spans, dump["spans"]):
        if row[3] >= 0:
            span.parent = spans[row[3]]
    return spans


def union_length(intervals, lo=None, hi=None):
    """Total length covered by the intervals, optionally clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        if lo is not None:
            a = max(a, lo)
        if hi is not None:
            b = min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time per span: its duration minus the part of its interval that
    its child spans cover. Children on other threads may overlap each other,
    so the covered part is the length of their union, not their sum."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): s.duration - union_length(children.get(id(s), ()), s.start, s.end)
            for s in spans}


# -- instrumentation of the dsgdlab modules -----------------------------------


def _rebind(name, original, replacement):
    """Point every loaded dsgdlab module that binds `original` at the
    replacement, so calls made through `from .x import f` are traced too."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "dsgdlab" or mod_name.startswith("dsgdlab."):
            if getattr(module, name, None) is original:
                setattr(module, name, replacement)


def _rows(x):
    shape = getattr(x, "shape", None)
    if not shape:
        return 1
    count = 1
    for n in shape[:-1]:
        count *= n
    return count


def traced_oracle(tracer, oracle):
    """The same loss oracle with its subgradient inside a losses span."""
    if getattr(oracle.subgradient, "__wrapped__", None) is not None:
        return oracle
    sub = tracer.wrap("losses.subgradient", oracle.subgradient,
                      lambda a, k, out: {"rows": _rows(a[0])})
    return dataclasses.replace(oracle, subgradient=sub)


def instrument(tracer):
    """Wrap the entry points of every module reachable from `dsgdlab run`.

    Each wrapper calls the original with the same arguments and returns its
    result unchanged, so traced records match untraced ones byte for byte.
    """
    from dsgdlab import engine, experiments, graphs, manifold, records, rectify, schedules

    def rebind_fn(module, name, span, attrs=None):
        original = getattr(module, name)
        _rebind(name, original, tracer.wrap(span, original, attrs))

    def wrap_method(cls, name, span, attrs=None):
        setattr(cls, name, tracer.wrap(span, getattr(cls, name), attrs))

    # engine
    rebind_fn(engine, "run_batch", "engine.run_batch",
              lambda a, k, out: {"steps": int(a[1]), "rows": int(out.n_seeds),
                                 "diverged": int((out.diverged_at >= 0).sum())})
    wrap_method(engine.NoiseStream, "draw_chunk", "engine.draw_chunk")

    # schedules
    for name in ("alpha", "gamma", "beta"):
        wrap_method(schedules.Schedule, name, f"schedules.{name}")

    # graphs
    rebind_fn(graphs, "constraint_rotation", "graphs.constraint_rotation")

    # losses: the assembled oracle of every problem the campaigns build
    build_problem = experiments.build_problem

    def traced_build_problem(config):
        problem = build_problem(config)
        problem.losses = dataclasses.replace(
            problem.losses, assembled=traced_oracle(tracer, problem.losses.assembled))
        return problem

    _rebind("build_problem", build_problem,
            tracer.wrap("experiments.build_problem", traced_build_problem))
    # the manifold batteries build their oracle inside the campaign; only the
    # campaigns' binding is wrapped, so rectify's restricted oracle (which
    # calls this one) is not counted twice
    saddle_context = experiments.saddle_context

    def traced_saddle_context(loss, *rest):
        return saddle_context(traced_oracle(tracer, loss), *rest)

    experiments.saddle_context = traced_saddle_context

    # experiments
    rebind_fn(experiments, "run_experiment", "experiments.run_experiment")
    run_seed_chunks = experiments._run_seed_chunks
    chunk_size = experiments.DEFAULT_SEED_CHUNK

    def traced_run_seed_chunks(fn, seeds, chunk=chunk_size):
        n_chunks = len(range(0, len(seeds), chunk))
        workers = 1 if n_chunks == 1 else experiments.worker_count()
        dispatch = tracer.open("experiments.dispatch")

        def traced_chunk(chunk_seeds):
            span = tracer.open("experiments.chunk", parent=dispatch)
            try:
                return fn(chunk_seeds)
            finally:
                tracer.close(span)

        try:
            return run_seed_chunks(traced_chunk, seeds, chunk)
        finally:
            tracer.close(dispatch)
            dispatch.attrs = {"workers": workers}

    experiments._run_seed_chunks = traced_run_seed_chunks

    # manifold
    model = manifold.ManifoldModel
    wrap_method(model, "__init__", "manifold.model_init")
    wrap_method(model, "coordinate_change", "manifold.coordinate_change")
    wrap_method(model, "frame", "manifold.frame")
    wrap_method(model, "_build_frame", "manifold.frame_build")
    wrap_method(model, "picard_solve", "manifold.picard_solve",
                lambda a, k, out: {"rows": int(out.u.shape[0]),
                                   "iterations": int(out.iterations)})
    wrap_method(model, "remainder_field", "manifold.remainder_field")
    wrap_method(model, "psi", "manifold.psi")

    # rectify
    for name in ("repulsion_check", "rectified_field_spectrum",
                 "compare_flattening_limit", "dt_phi_decay_probe", "rectify_phi"):
        rebind_fn(rectify, name, f"rectify.{name}")

    # records
    for name in ("write_campaign", "write_summary", "write_manifold_report"):
        rebind_fn(records, name, "records.write",
                  lambda a, k, out: {"bytes": os.path.getsize(a[1])})
