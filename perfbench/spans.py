"""In-memory span recording around calls into spherecov's public functions.

Only the traced run installs these wrappers. A wrapper replaces a function at
every module attribute that binds it (the defining module, the package
`__init__` and every module that imported it by name), so internal calls
between spherecov modules are recorded too.

Each span holds a layer name, start and end on the system-wide monotonic
clock (comparable across processes on Linux), the index of its parent span,
the op id, and two work counters: `count` (points or entries) and `nbytes`
(a computed table size). A layer's self time is its span's duration minus
the durations of its direct child spans.
"""

import functools
import sys
import time

import numpy as np

from metrics import LIBRARY_LAYERS

def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _eval_sequence_work(args, kwargs):
    n_max = kwargs.get("n_max", args[1] if len(args) > 1 else 0)
    x = kwargs.get("x", args[2] if len(args) > 2 else 0.0)
    points = int(np.size(x))
    return points, (int(n_max) + 1) * points * 8


def _gram_work(args, kwargs):
    points = kwargs.get("points", args[1] if len(args) > 1 else ())
    n = len(points)
    return n * n, 0


# Work counters recorded per layer; layers not listed record no counts.
WORK = {
    "gegenbauer.eval_sequence": _eval_sequence_work,
    "fields.gram": _gram_work,
}


class Tracer:
    """Span store for one process. Spans are recorded only while `active`."""

    def __init__(self):
        self.active = False
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.count = []
        self.nbytes = []
        self._stack = []
        self._op_id = -1
        self._installed = []

    def open(self, name, count=0, nbytes=0) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.start.append(now_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.count.append(count)
        self.nbytes.append(nbytes)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = now_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def add(self, name, start, end, parent=-1, count=0, nbytes=0) -> int:
        """Append a finished span (used for spans read back from a child process)."""
        idx = len(self.names)
        self.names.append(name)
        self.start.append(int(start))
        self.end.append(int(end))
        self.parent.append(parent)
        self.op.append(self._op_id)
        self.count.append(count)
        self.nbytes.append(nbytes)
        return idx

    def begin_op(self, op_id, kind) -> int:
        self._op_id = op_id
        return self.open(f"op.{kind}")

    def current(self) -> int:
        """Index of the innermost open span."""
        return self._stack[-1]

    def end_op(self, idx):
        self.close(idx)
        self._op_id = -1

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            count, nbytes = work(args, kwargs) if work else (0, 0)
            idx = self.open(name, count, nbytes)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def install(self, package="spherecov"):
        """Wrap each library layer of metrics.LIBRARY_LAYERS, named
        "<module>.<function>", at every spherecov module attribute bound to it."""
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for name in LIBRARY_LAYERS:
            module_name, func_name = name.split(".")
            # Skips the benchmark's callbacks and modules this process never
            # imported (the worker does not import spherecov.cli).
            defining = sys.modules.get(f"{package}.{module_name}")
            if defining is None:
                continue
            original = getattr(defining, func_name)
            wrapper = self.wrap(name, original, WORK.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def rows(self):
        """Spans as plain lists, for writing to JSON."""
        return [list(r) for r in zip(self.names, self.start, self.end, self.parent, self.count, self.nbytes)]

    def arrays(self) -> dict:
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": np.array(names),
            "name_id": np.array([code[n] for n in self.names], dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "count": np.array(self.count, dtype=np.int64),
            "nbytes": np.array(self.nbytes, dtype=np.int64),
        }


def self_times_ns(start, end, parent) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def layer_totals(tracer: Tracer) -> dict:
    """name -> {"calls", "self_ns", "count", "max_nbytes"} summed over all spans."""
    if not tracer.names:
        return {}
    self_ns = self_times_ns(tracer.start, tracer.end, tracer.parent)
    totals = {}
    for i, name in enumerate(tracer.names):
        t = totals.setdefault(name, {"calls": 0, "self_ns": 0, "count": 0, "max_nbytes": 0})
        t["calls"] += 1
        t["self_ns"] += int(self_ns[i])
        t["count"] += tracer.count[i]
        t["max_nbytes"] = max(t["max_nbytes"], tracer.nbytes[i])
    return totals
