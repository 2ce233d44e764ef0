"""Outside-in span tracer for the boundarykit layers.

The layers are the package modules ``graphs``, ``lattice``, ``cyclespace``,
``boundary`` and ``harness``.  Modules import each other's functions by
name, so a public function is wrapped at every place it is bound: its own
module (calls from inside the module), every other module of the package
that imported it, and the package namespace (calls from the benchmark).
``EdgeVector.is_cycle`` is wrapped on its class.  Nothing under ``src/``
changes; the wrappers live in this process only.

Each call records one span ``(name_id, start, end, parent_sid, sid)`` in
memory, in completion order.  A generator function is timed per ``next()``,
so the time its consumer spends between items is not charged to it.  Self
time is a span's duration minus the durations of its child spans; calls
nest strictly because campaigns run in one thread.
"""

import gzip
import inspect
import itertools
import sys
import time

LAYERS = ("graphs", "lattice", "cyclespace", "boundary", "harness")
METHODS = (("cyclespace", "EdgeVector", "is_cycle"),)
# Functions whose result size is summed as their work count.
SIZED = ("graphs.component_of",)


class Tracer:
    """Span recorder; ``install`` wraps the package, ``uninstall`` undoes it."""

    def __init__(self):
        self.names = []       # name id -> "module.function"
        self.spans = []       # (name_id, start, end, parent_sid, sid)
        self.work = []        # name id -> result sizes or generator items
        self._stack = [-1]
        self._ids = itertools.count()
        self._restore = []    # (owner, attribute, original)

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        namespaces = [package] + [m for n, m in sorted(sys.modules.items())
                                  if n.startswith(prefix)]
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, obj in sorted(vars(mod).items()):
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)])
        for layer, cls_name, attr in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.work.append(0)
        spans, stack, ids, work = self.spans, self._stack, self._ids, self.work
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = next(ids)
                    parent = stack[-1]
                    stack.append(sid)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        spans.append((nid, t0, t1, parent, sid))
                    work[nid] += 1
                    yield item
        elif name in SIZED:
            def traced(*args, **kwargs):
                sid = next(ids)
                parent = stack[-1]
                stack.append(sid)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.append((nid, t0, t1, parent, sid))
                work[nid] += len(out)
                return out
        else:
            def traced(*args, **kwargs):
                sid = next(ids)
                parent = stack[-1]
                stack.append(sid)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.append((nid, t0, t1, parent, sid))
        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per traced name: calls, self seconds, work count, and the median
        and 99th percentile of the span durations (children included)."""
        rows = {name: {"calls": 0, "self_s": 0.0, "work": self.work[nid]}
                for nid, name in enumerate(self.names)}
        durations = {name: [] for name in self.names}
        for nid, duration, self_time in self_times(self.spans):
            name = self.names[nid]
            rows[name]["calls"] += 1
            rows[name]["self_s"] += self_time
            durations[name].append(duration)
        for name, row in rows.items():
            values = sorted(durations[name])
            row["p50_s"] = percentile(values, 50)
            row["p99_s"] = percentile(values, 99)
        return rows

    def write_spans(self, path) -> None:
        """Write every span, in start order, as gzip'd tab-separated text.
        ``instance`` is the sid of the span's outermost ancestor below the
        campaign root (for dp and k, one full_report per instance)."""
        by_sid = sorted(self.spans, key=lambda span: span[4])   # sids are 0..n-1
        instance = [-1] * len(by_sid)
        for _, _, _, parent, sid in by_sid:      # a parent starts before its children
            if parent >= 0:                      # roots keep instance -1
                instance[sid] = sid if by_sid[parent][3] < 0 else instance[parent]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("sid\tparent\tinstance\tname\tstart_s\tend_s\n")
            for nid, t0, t1, parent, sid in by_sid:
                fh.write(f"{sid}\t{parent}\t{instance[sid]}\t{self.names[nid]}\t"
                         f"{t0:.9f}\t{t1:.9f}\n")


def self_times(spans):
    """Yield ``(name_id, duration, self_time)`` for spans given in completion
    order, where every child span completes before its parent."""
    covered = {}
    for nid, t0, t1, parent, sid in spans:
        duration = t1 - t0
        if parent >= 0:
            covered[parent] = covered.get(parent, 0.0) + duration
        yield nid, duration, duration - covered.pop(sid, 0.0)


def percentile(sorted_values, q: int) -> float:
    """Nearest-rank ``q``-th percentile (integer 1..100) of an ascending
    list; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[rank - 1]
