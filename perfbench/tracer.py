"""In-memory span tracing of fmsolve, applied from outside the library.

A :class:`Tracer` replaces public functions at the attribute their caller
looks up (``fmsolve.nn.forward`` as ``cfm`` and ``analysis`` call it,
``fmsolve.analysis.eig2x2``, ...) with a wrapper that records one span per
call: name, start, end, parent span and run id.  Spans stay in memory until
the run writes them out.  The library itself is not modified on disk and
every attribute is restored when the tracer is removed.
"""

import functools
import time

# (module, attribute, span name).  The module is the one whose global the
# caller reads, so the wrapper sits exactly where the call is resolved.
TRACE_POINTS = (
    ("nn", "forward", "nn.forward"),
    ("nn", "loss_and_grad", "nn.loss_and_grad"),
    ("nn", "adam_update", "nn.adam_update"),
    ("cfm", "train", "cfm.train"),
    ("cfm", "sample", "cfm.sample"),
    ("cfm", "save_model", "cfm.save_model"),
    ("cfm", "load_model", "cfm.load_model"),
    ("cfm", "generate", "data.generate"),
    ("data", "generate", "data.generate"),
    ("cfm", "gaussian_sample", "numeric.gaussian_sample"),
    ("analysis", "gaussian_sample", "numeric.gaussian_sample"),
    ("analysis", "eig2x2", "numeric.eig2x2"),
    ("analysis", "cond2x2", "numeric.cond2x2"),
    ("cfm", "integrate_fixed", "ode.integrate_fixed"),
    ("analysis", "integrate_fixed", "ode.integrate_fixed"),
    ("cfm", "integrate_dopri5", "ode.integrate_dopri5"),
    # dopri5_tolerance_study imports integrate_dopri5 from fmsolve.ode at call time
    ("ode", "integrate_dopri5", "ode.integrate_dopri5"),
    ("ode", "stability_region_grid", "analysis.stability_region_grid"),
    ("analysis", "swd", "analysis.swd"),
    ("analysis", "spectrum_along_trajectory", "analysis.spectrum"),
    ("analysis", "convergence_study", "analysis.convergence_study"),
    ("analysis", "dopri5_tolerance_study", "analysis.dopri5_tolerance_study"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "attrs")

    def __init__(self, name, start, parent, run_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run_id = run_id
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run_id": self.run_id,
            "attrs": self.attrs,
        }


class Tracer:
    """Records nested spans of wrapped calls on a single thread.

    ``observe(span_name, args, result)`` may return a dict of attributes
    (row counts, NFE, ...) stored on the span; it runs after the end time is
    taken, so its cost is not charged to the span.
    """

    def __init__(self, fm, observe=None):
        self._fm = fm
        self._observe = observe
        self._saved = []
        self._stack = []
        self.spans = []
        self.run_id = 0

    def _wrap(self, fn, name):
        spans, stack, observe = self.spans, self._stack, self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1, self.run_id)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                span.attrs = observe(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name in TRACE_POINTS:
            module = getattr(self._fm, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        cls = self._fm.nn.MlpParams
        original = cls.check_finite
        self._saved.append((cls, "check_finite", original))
        setattr(cls, "check_finite", self._wrap(original, "nn.check_finite"))

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans):
    """Self time of every span: its duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def root_of(spans, index):
    while spans[index].parent >= 0:
        index = spans[index].parent
    return index
