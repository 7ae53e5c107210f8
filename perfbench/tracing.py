"""Span tracer for the traced benchmark run.

Wrappers are installed at the module attributes the pipeline calls through,
so the package source stays untouched. A span records its name, start, end,
parent span and operation id. Spans are recorded only while an operation is
active, so correctness checks that call the same functions between
operations are neither timed nor counted. Spans stay in memory until the run
writes them out.
"""

import functools
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.captured = []  # (op id, span name, args, result) of capture points
        self.op = None
        self._stack = []
        self._saved = []

    def _wrapper(self, fn, name, capture):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append([name, perf_counter(), None, parent, tracer.op])
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][2] = perf_counter()
            if capture:
                tracer.captured.append((tracer.op, name, args, out))
            return out

        return traced

    def install(self, points):
        """Wrap each (owner, attribute, span name, capture) point.

        `owner` is a module or a class. The raw attribute is saved so that
        `uninstall` restores a class's descriptor exactly.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, capture in points:
            raw = vars(owner)[attr]
            traced = self._wrapper(getattr(owner, attr), name, capture)
            if isinstance(owner, type):
                traced = staticmethod(traced)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def profiles(self):
        """Per operation, {span name: (total s, self s, calls)}.

        Self time is a span's duration minus the time its child spans cover.
        Children of one span never overlap: the traced code runs in a single
        thread.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            prof = out.setdefault(op, {})
            total, self_s, calls = prof.get(name, (0.0, 0.0, 0))
            dur = end - start
            prof[name] = (total + dur, self_s + dur - child[i], calls + 1)
        return out

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
