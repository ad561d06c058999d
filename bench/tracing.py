"""Span tracing installed from outside the package.

The tracer replaces chosen public functions of the ``homleap`` modules
with timing wrappers, in every module namespace that holds the original
object, so callers that bound a function by name (``from .closedform
import amplitude_expansion``) and callers that look it up through a
module (``walk.rotation_probabilities``) are both traced.  ``remove``
puts every original object back.

Each span records its name, start, end and parent.  Spans of one thread
nest through a per-thread stack; a span opened on a thread with an empty
stack (a sweep pool worker) takes the innermost open span of the thread
that installed the tracer as its parent.  Self time is a span's duration
minus the union of its children's intervals, so overlapping children
from several threads are not subtracted twice.  Spans are folded into
per-name totals as they close; nothing per call is kept.
"""
from __future__ import annotations

import sys
import threading
import time

#: (module, attribute, span name); an attribute "Class.method" patches the
#: method on the class.  Several functions may share one span name.
TARGETS = (
    ("homleap.walk", "wigner_d_column", "walk.wigner_d_column"),
    ("homleap.walk", "wigner_d", "walk.wigner_d"),
    ("homleap.walk", "rotation_probabilities", "walk.rotation_probabilities"),
    ("homleap.walk", "evolved_distribution", "walk.evolved_distribution"),
    ("homleap.states", "DeltaDistribution.__post_init__", "states.DeltaDistribution"),
    (
        "homleap.states",
        "JointCountDistribution.__post_init__",
        "states.JointCountDistribution",
    ),
    ("homleap.closedform", "distribution", "closedform.distribution"),
    ("homleap.closedform", "prob_delta_out", "closedform.prob_delta_out"),
    ("homleap.closedform", "amplitude_expansion", "closedform.amplitude_expansion"),
    ("homleap.channels", "mixed_distribution", "channels.mixed_distribution"),
    ("homleap.channels", "apply_detector_loss", "channels.apply_detector_loss"),
    ("homleap.channels", "decohere_distribution", "channels.decohere_distribution"),
    ("homleap.channels", "eta_for_purity", "channels.eta_solve"),
    ("homleap.channels", "eta_for_joint_purity", "channels.eta_solve"),
    ("homleap.metrics", "visibility_fock", "metrics.visibility_fock"),
    ("homleap.metrics", "nonclassical_mask", "metrics.nonclassical_mask"),
    ("homleap.metrics", "mean_delta", "metrics.moments"),
    ("homleap.metrics", "variance_delta", "metrics.moments"),
    ("homleap.cli", "main", "cli.main"),
    ("homleap.cli", "cmd_sweep", "cli.sweep"),
)

ROOT = "request"


def _union_length(intervals, lo, hi):
    """Length of the union of [a, b] intervals clipped to [lo, hi]."""
    covered = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, hi)
        if b > a:
            covered += b - a
            reach = b
    return covered


class Stat:
    """Totals for one span name."""

    __slots__ = ("calls", "total", "self_time", "children", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children = 0.0  # summed child durations; above total when children overlap
        self.work = 0

    def as_dict(self):
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "children_s": self.children,
            "work": self.work,
        }


class Tracer:
    """Collects spans from wrapped package functions and benchmark requests."""

    def __init__(self):
        self.stats = {}
        self.counters = {"channels.expansions": 0, "closedform.raised": 0, "cli.exit_nonzero": 0}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = None
        self._plan = None
        self._installed = False

    # ------------------------------------------------------------ spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, work=0):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        in_channels = name.startswith("channels.") or (parent is not None and parent[3])
        if name == "closedform.amplitude_expansion" and parent is not None and parent[3]:
            with self._lock:
                self.counters["channels.expansions"] += 1
        frame = [name, time.perf_counter(), [], in_channels, work, parent]
        stack.append(frame)
        return frame

    def _close(self, frame, raised):
        end = time.perf_counter()
        self._stack().pop()
        name, start, children, _flag, work, parent = frame
        duration = end - start
        own = duration - _union_length(children, start, end) if children else duration
        child_sum = sum(b - a for a, b in children)
        if parent is not None:
            parent[2].append((start, end))
        with self._lock:
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = Stat()
            stat.calls += 1
            stat.total += duration
            stat.self_time += own
            stat.children += child_sum
            stat.work += work
            # an exception counts once, where it leaves the closedform layer
            if raised and name.startswith("closedform.") and not (
                parent is not None and parent[0].startswith("closedform.")
            ):
                self.counters["closedform.raised"] += 1

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span and return its result."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, original):
        tracer = self
        sized = name == "walk.wigner_d_column"
        rational = name == "closedform.distribution"
        command = name == "cli.main"

        def wrapper(*args, **kwargs):
            span_name = name
            if rational:
                mode = args[2] if len(args) > 2 else kwargs.get("mode")
                if mode is not None and mode.is_exact:
                    span_name = "closedform.distribution.rational"
            frame = tracer._open(span_name, args[0] + 1 if sized else 0)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(frame, True)
                raise
            tracer._close(frame, False)
            if command and result:
                with tracer._lock:
                    tracer.counters["cli.exit_nonzero"] += 1
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # ------------------------------------------------------------ patching

    def install(self):
        """Wrap every target in every homleap module namespace that holds it.

        The namespaces are searched on the first call only; later calls
        reapply the same wrappers, so tracing every other request stays cheap.
        """
        if self._installed:
            return
        if self._plan is None:
            self._plan = self._find_targets()
        self._owner_stack = self._stack()
        for holder, key, _original, wrapper in self._plan:
            setattr(holder, key, wrapper)
        self._installed = True

    def _find_targets(self):
        """[(holder, attribute, original, wrapper)] for every target."""
        plan = []
        modules = [m for k, m in list(sys.modules.items()) if k == "homleap" or k.startswith("homleap.")]
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                plan.append((cls, meth, original, self._wrap(span_name, original)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        plan.append((holder, key, original, wrapper))
        return plan

    def remove(self):
        """Restore every patched attribute to its original object."""
        if not self._installed:
            return
        for holder, key, original, _wrapper in reversed(self._plan):
            setattr(holder, key, original)
        self._installed = False

    # ------------------------------------------------------------ output

    def snapshot(self):
        return {
            "stats": {name: stat.as_dict() for name, stat in self.stats.items()},
            "counters": dict(self.counters),
        }


def empty():
    return {"stats": {}, "counters": {}}
