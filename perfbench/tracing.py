"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``[name, op, parent, start, end]``: ``op`` is the id of the
workload op it belongs to and ``parent`` the index of the enclosing span
(-1 for a root).  Spans are appended to a list while the run goes on and
written out once, when it ends.  The program itself is not instrumented:
every span wraps a call into a public function of the package, made either
by the benchmark or, for ``worst_case_survival``, through a wrapper the
traced run installs in the calling modules.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter


def no_span(name: str, op=None):
    return contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ops = 0

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        """A span nested in the innermost open one.  A root span without an
        ``op`` starts a new op id; nested spans inherit their parent's."""
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][1]
        elif op is None:
            op = self._ops
            self._ops += 1
        index = len(self.spans)
        record = [name, op, parent, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[0] == name]

    def self_time(self, name: str) -> float:
        """Total duration of the spans called ``name`` minus the time their
        direct children cover (children of one span never overlap)."""
        child = defaultdict(float)
        for s in self.spans:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        return sum(s[4] - s[3] - child[i] for i, s in enumerate(self.spans) if s[0] == name)


@contextlib.contextmanager
def kernel_spans(tracer: Tracer):
    """Record a span for every ``worst_case_survival`` call that ``sweep``
    and ``run_bootstrap`` make, by wrapping the name in the modules that
    look it up."""
    import certbound.fleet
    import certbound.inference

    original = certbound.inference.worst_case_survival

    def traced(*args, **kwargs):
        with tracer.span("inference.worst_case_survival"):
            return original(*args, **kwargs)

    modules = (certbound.inference, certbound.fleet)
    for module in modules:
        module.worst_case_survival = traced
    try:
        yield
    finally:
        for module in modules:
            module.worst_case_survival = original
