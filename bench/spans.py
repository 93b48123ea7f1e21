"""Span recorder for the traced run.

The benchmark wraps the public functions of each ``reqlattice`` module
from the outside; nothing in the package changes.  A wrapper opens a span
(name, start, end, parent) around every call.  Spans stay in memory and
are written out when the run ends.

To keep memory flat on call-heavy paths (the CLI witness search makes
millions of ``is_weaker`` calls), consecutive calls of the same leaf
function under the same parent fold into one span that carries a call
count and the summed duration.  Self time is then a span's duration minus
the summed durations of its children, which is exact because calls in one
thread never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import types

# Modules whose public functions are traced, in layer order.  `errors`
# does no work and is left out.
LAYERS = ("io", "model", "refinement", "algebra", "analysis", "cli")

# Classes whose construction is work of their layer.  RefinementGraph is
# left out: its constructor is build_graph's own work.
CLASS_HOOKS = {"model": ("Catalog",)}

# Per-element scope predicates, called once per requirement in every scan.
# Wrapping them would multiply the cost of each scan; their time counts as
# their caller's self time.
UNTRACED = {"model.scope_contains", "model.expand_scope"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "dur", "calls", "child", "leaf", "extra")

    def __init__(self, name: str, parent: int, start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.dur = 0.0
        self.calls = 1
        self.child = 0.0
        self.leaf = True
        self.extra: dict | None = None


class Recorder:
    """Collects spans from the wrappers that `install` puts in place."""

    def __init__(self, memory: bool = False) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.last_child: dict[int, int] = {}
        # With `memory`, each span also records its tracemalloc peak, and
        # no spans are folded.  tracemalloc must be running.
        self.memory = memory
        self._mem: list[list[int]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if parent >= 0:
            self.spans[parent].leaf = False
        span = Span(name, parent, time.perf_counter())
        self.spans.append(span)
        index = len(self.spans) - 1
        self.stack.append(index)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                top = self._mem[-1]
                top[1] = max(top[1], peak - top[0])
            tracemalloc.reset_peak()
            self._mem.append([current, 0])
        return index

    def close(self, index: int, extra: dict | None = None) -> None:
        end = time.perf_counter()
        self.stack.pop()
        span = self.spans[index]
        span.end = end
        span.dur = end - span.start
        span.extra = extra
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            frame = self._mem.pop()
            frame[1] = max(frame[1], peak - frame[0])
            span.extra = dict(extra or {}, peak_bytes=frame[1])
            if self._mem:
                top = self._mem[-1]
                top[1] = max(top[1], frame[1] + frame[0] - top[0])
            tracemalloc.reset_peak()
        parent = span.parent
        if parent >= 0:
            self.spans[parent].child += span.dur
        previous = self.last_child.get(parent)
        if (
            span.leaf
            and extra is None
            and not self.memory
            and previous is not None
            and previous == index - 1
        ):
            # Fold a run of leaf calls of one function into one span.
            folded = self.spans[previous]
            if folded.name == span.name and folded.leaf and folded.extra is None:
                folded.end = end
                folded.dur += span.dur
                folded.calls += 1
                self.spans.pop()
                return
        self.last_child[parent] = index

    def root(self, name: str):
        """Context manager for one operation of the benchmark."""
        recorder = self

        class _Root:
            def __enter__(self):
                self.index = recorder.open(name)
                return self

            def __exit__(self, *exc):
                recorder.close(self.index)
                recorder.last_child.clear()
                return False

        return _Root()

    def dump(self) -> list[list]:
        return [
            [s.name, s.parent, round(s.start, 6), round(s.end, 6), s.calls, round(s.dur, 6), s.extra]
            for s in self.spans
        ]


def _optimize_counts(args, kwargs, result) -> dict:
    members = args[1] if len(args) > 1 else kwargs["members"]
    return {"in": len(members), "out": len(result)}


# Per-call counts recorded next to the span for functions that can waste
# work.  Each hook gets (args, kwargs, result).
COUNTERS = {"refinement.optimize": _optimize_counts}


def _wrap(recorder: Recorder, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        extra = None
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                extra = counter(args, kwargs, result)
            return result
        finally:
            recorder.close(index, extra)

    return traced


def _wrap_method(recorder: Recorder, name: str, cls, attr: str) -> tuple:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        inner = _wrap(recorder, name, raw.__func__)
        setattr(cls, attr, classmethod(inner))
    else:
        setattr(cls, attr, _wrap(recorder, name, raw))
    return (cls, attr, raw)


def install(recorder: Recorder, package) -> list[tuple]:
    """Wrap every public function of each layer; return the undo list.

    A function is rebound in every ``reqlattice`` module namespace that
    binds it, because modules import each other's functions by name (the
    CLI binds ``validate`` and ``build_graph`` itself, and
    ``refinement.build_graph`` calls ``validate`` through its own import).
    """
    modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
    undo: list[tuple] = []
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        public = [
            (attr, obj)
            for attr, obj in vars(module).items()
            if not attr.startswith("_")
            and isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
        ]
        public = [(attr, obj) for attr, obj in public if f"{layer}.{attr}" not in UNTRACED]
        if layer == "cli":
            # Only the entry point: the commands and the parser builder are
            # the CLI layer's own work and stay in main's self time.
            public = [(attr, obj) for attr, obj in public if attr == "main"]
        for attr, fn in public:
            wrapped = _wrap(recorder, f"{layer}.{attr}", fn)
            for other in modules:
                for bound_name, value in list(vars(other).items()):
                    if value is fn:
                        undo.append((other, bound_name, fn))
                        setattr(other, bound_name, wrapped)
        for cls_name in CLASS_HOOKS.get(layer, ()):
            cls = getattr(module, cls_name)
            for attr in ("__post_init__", "from_edges"):
                if attr in cls.__dict__:
                    undo.append(_wrap_method(recorder, f"{layer}.{cls_name}", cls, attr))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[str, dict]:
    """Per span name: summed self seconds, call count, and the extras."""
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"self": 0.0, "calls": 0, "extras": []})
        entry["self"] += span.dur - span.child
        entry["calls"] += span.calls
        if span.extra is not None:
            entry["extras"].append(span.extra)
    return out
