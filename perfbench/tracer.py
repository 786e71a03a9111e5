"""In-memory span tracer that wraps public ``repro`` functions from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces each
target function or method with a timing wrapper and :meth:`Tracer.uninstall`
puts the originals back.  A module-level function that other modules bound
with ``from ... import name`` is replaced in every loaded ``repro`` module
that holds the same object, so calls through those aliases are seen too.

Each thread keeps its own span stack and aggregates, so the service's
worker threads never contend on (or lose) an update; aggregates are merged
when read.  Per span name the tracer keeps:

* ``calls``  -- completed calls;
* ``busy``   -- wall time covered by the name, outermost occurrence only
  (a recursive call is not counted twice);
* ``self``   -- duration minus the part covered by traced child spans;
* ``children[(parent, child)]`` -- child-call counts, e.g. assemblies per
  Newton call.

Individual spans ``(name, start_ns, end_ns, id, parent_id, thread)`` are
kept up to ``MAX_SPANS`` for the Chrome trace; the aggregates are exact
regardless of that cap.  A process forked from a traced one (a sweep
pool worker) inherits the patched functions but records nothing: its
spans could never reach the parent.  Only the standard library is used.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

_now = time.perf_counter_ns
MAX_SPANS = 100_000


class _ThreadState:
    __slots__ = ("stack", "calls", "busy", "self_ns", "children", "counts",
                 "root_ns", "scratch", "thread")

    def __init__(self, thread: str):
        self.stack: list = []  # frames: [name, start_ns, child_ns, id]
        self.calls: dict = {}
        self.busy: dict = {}
        self.self_ns: dict = {}
        self.children: dict = {}
        self.counts: dict = {}  # observer counters
        self.root_ns = 0  # time covered by spans with no traced parent
        self.scratch: dict = {}  # per-thread observer state
        self.thread = thread


class Tracer:
    """Collects spans around patched functions (see module docstring)."""

    def __init__(self):
        self.spans: list = []
        self.samples: dict = {}  # observer samples: name -> [values]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list = []  # (owner, attribute, original)
        self.enabled = False
        self.origin_ns = _now()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.enabled = False

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _observe_only(self, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                observe(tracer, args, kwargs, result)
            return result

        return observed

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [name, _now(), 0, next(tracer._ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result
            finally:
                end = _now()
                stack.pop()
                duration = end - frame[1]
                state.calls[name] = state.calls.get(name, 0) + 1
                state.self_ns[name] = (state.self_ns.get(name, 0)
                                       + duration - frame[2])
                if not any(f[0] == name for f in stack):
                    state.busy[name] = state.busy.get(name, 0) + duration
                if parent is None:
                    state.root_ns += duration
                else:
                    parent[2] += duration
                    key = (parent[0], name)
                    state.children[key] = state.children.get(key, 0) + 1
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((
                        name, frame[1], end, frame[3],
                        0 if parent is None else parent[3], state.thread,
                    ))

        return traced

    def mark(self, name: str, start_ns: int, end_ns: int,
             child_ns: int = 0) -> None:
        """Record a span measured by the caller (no wrapped function);
        ``child_ns`` is the part covered by traced spans inside it."""
        state = self._state()
        duration = end_ns - start_ns
        state.calls[name] = state.calls.get(name, 0) + 1
        state.self_ns[name] = (state.self_ns.get(name, 0) + duration
                               - child_ns)
        state.busy[name] = state.busy.get(name, 0) + duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, start_ns, end_ns, next(self._ids), 0,
                               state.thread))

    def count(self, name: str, amount=1) -> None:
        """Bump an observer counter (per thread, merged on read)."""
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        """Append one observer sample (e.g. a queue wait)."""
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def scratch(self) -> dict:
        """Per-thread scratch space for observers that pair two calls."""
        return self._state().scratch

    def thread_root_ns(self) -> int:
        """Time covered so far by this thread's top-level spans."""
        return self._state().root_ns

    # -- patching ------------------------------------------------------------

    def install(self, targets, observers=()) -> None:
        """Wrap every ``(module, qualname, observe)`` target in a span.

        ``module`` is a dotted path under ``repro`` (``"spice.dcop"``);
        ``qualname`` is ``"fn"`` or ``"Class.method"``.  The span name is
        ``"<module>.<qualname>"``.  ``observe(tracer, args, kwargs,
        result)``, when given, runs after each traced call.  Entries of
        ``observers`` have the same form but record no span, only run the
        observer (for calls that block, such as a worker waiting for its
        next job).
        """
        import importlib

        entries = [(t, True) for t in targets] + \
            [(o, False) for o in observers]
        for (module_name, qualname, observe), span in entries:
            module = importlib.import_module(f"repro.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self._wrapper(name, original, observe, span))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrapper(name, original, observe, span)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("repro")
                        and other.__dict__.get(qualname) is original):
                    self._patch(other, qualname, original, wrapper)

    def _wrapper(self, name, fn, observe, span):
        if span:
            return self._wrap(name, fn, observe)
        return self._observe_only(fn, observe)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        self.enabled = False

    # -- reading -------------------------------------------------------------

    def reset(self) -> None:
        """Forget every span and aggregate (patches stay installed)."""
        with self._lock:
            for state in self._states:
                state.calls.clear()
                state.busy.clear()
                state.self_ns.clear()
                state.children.clear()
                state.counts.clear()
                state.root_ns = 0
            self.samples.clear()
        self.spans.clear()

    def totals(self) -> dict:
        """``{name: {"calls", "busy_s", "self_s"}}`` merged over threads."""
        out: dict = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, calls in list(state.calls.items()):
                entry = out.setdefault(
                    name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                entry["calls"] += calls
                entry["busy_s"] += state.busy.get(name, 0) / 1e9
                entry["self_s"] += state.self_ns.get(name, 0) / 1e9
        return out

    def child_calls(self, parent: str, child: str) -> int:
        with self._lock:
            states = list(self._states)
        return sum(s.children.get((parent, child), 0) for s in states)

    def counter(self, name: str):
        with self._lock:
            states = list(self._states)
        return sum(s.counts.get(name, 0) for s in states)

    def root_seconds(self, thread: str) -> float:
        """Wall time covered by top-level spans of one thread."""
        with self._lock:
            states = list(self._states)
        return sum(s.root_ns for s in states if s.thread == thread) / 1e9

    def self_time_table(self, wall_s: float) -> str:
        """Spans sorted by self time, with their share of ``wall_s``."""
        rows = sorted(self.totals().items(),
                      key=lambda item: -item[1]["self_s"])
        lines = [f"{'span':58s} {'calls':>9s} {'busy_s':>9s} "
                 f"{'self_s':>9s} {'self%':>6s}"]
        for name, entry in rows:
            share = 100.0 * entry["self_s"] / wall_s if wall_s > 0 else 0.0
            lines.append(
                f"{name:58s} {entry['calls']:9d} {entry['busy_s']:9.3f} "
                f"{entry['self_s']:9.3f} {share:6.1f}"
            )
        return "\n".join(lines)

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        threads: dict = {}
        events = []
        for name, start, end, span_id, parent, thread in self.spans:
            tid = threads.setdefault(thread, len(threads) + 1)
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (start - self.origin_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": span_id, "parent": parent},
            })
        for thread, tid in threads.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": thread}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
