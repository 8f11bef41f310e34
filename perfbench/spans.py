"""Spans around the calls the benchmark makes into each nkscreen module.

A traced run records one span per call: name, start, end, parent span and
run id, plus a few attributes (LP pivot counts, LPs per rescale).  Spans
stay in memory and are written once, when the run ends.  Calls the program
makes internally (training into the oracle, the oracle into the simplex)
are reached by swapping the public function or method for a recording
wrapper for the length of the traced run; the program's source is never
touched, and untraced runs never install a wrapper.
"""

import contextlib
import functools
import json
import time

import numpy as np


class Tracer:
    """In-memory spans of one run, and the wrappers that record them."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent, attrs]
        self._stack = []
        self._patches = []
        self._children = None    # parent -> child indices, built on query

    @contextlib.contextmanager
    def span(self, name):
        """Record the enclosed block; yields a dict for span attributes."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, {}]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec[4]
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, attrs_of=None):
        """Record a span around every call of owner.attr until unwrap_all.

        attrs_of(result) returns attributes to store on the span, e.g. the
        pivot count of an LP solution.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = original(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(result))
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- queries ---------------------------------------------------------

    def named(self, name, under=None):
        """Indices of spans called name, optionally below an ancestor name."""
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            if under is not None and not self._has_ancestor(i, under):
                continue
            out.append(i)
        return out

    def _has_ancestor(self, i, name):
        return any(self.spans[p][0] == name for p in self._ancestors(i))

    def _ancestors(self, i):
        p = self.spans[i][3]
        while p >= 0:
            yield p
            p = self.spans[p][3]

    def within(self, name, root):
        """Indices of spans called name below the span with index root."""
        return [i for i in self.named(name) if root in self._ancestors(i)]

    def outermost(self, indices, prefix):
        """Drop spans nested inside another span whose name has prefix."""
        keep = []
        for i in indices:
            p = self.spans[i][3]
            if p >= 0 and self.spans[p][0].startswith(prefix):
                continue
            keep.append(i)
        return keep

    def duration(self, i):
        s = self.spans[i]
        return s[2] - s[1]

    def self_time(self, i):
        """Duration minus the time its direct children cover.

        Calls are single-threaded and children nest inside their parent
        without overlapping, so the covered time is the sum of their
        durations.
        """
        if self._children is None:
            self._children = {}
            for j, s in enumerate(self.spans):
                self._children.setdefault(s[3], []).append(j)
        covered = sum(self.duration(j) for j in self._children.get(i, ()))
        return self.duration(i) - covered

    def mean_duration(self, indices):
        return float(np.mean([self.duration(i) for i in indices]))

    def attr_values(self, indices, key):
        return [self.spans[i][4][key] for i in indices]

    def write(self, path):
        """All spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "run": self.run_id, "name": name,
                    "start": start - t0, "end": end - t0, "parent": parent,
                    **attrs}) + "\n")


def maybe_span(tracer, name):
    """tracer.span(name), or nothing when the run is untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def span_cost(calls=20000):
    """Seconds one recorded span adds, measured on a no-op call."""
    probe = Tracer("calibration")

    class Owner:
        @staticmethod
        def noop():
            return None

    t0 = time.perf_counter()
    for _ in range(calls):
        Owner.noop()
    bare = time.perf_counter() - t0
    probe.wrap(Owner, "noop", "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        Owner.noop()
    wrapped = time.perf_counter() - t0
    probe.unwrap_all()
    return max(wrapped - bare, 0.0) / calls


def lp_attrs(sol):
    return {"pivots": int(sol.iterations)}


def wrap_simplex(tracer):
    """Spans with pivot counts around the public SimplexEngine entry points."""
    from nkscreen.lp import SimplexEngine
    for method in ("solve", "resolve_objective", "resolve_rhs", "reload"):
        tracer.wrap(SimplexEngine, method, "lp." + method, lp_attrs)
