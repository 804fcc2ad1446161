"""Out-of-program span tracing for the benchmark's traced run.

The traced run wraps the public functions at each layer boundary of
``repro`` (replacing the class or module attribute, and putting the
original back afterwards) so that every call records one span: name,
start, end and the span that was open when it began.  Spans live in
compact in-memory arrays while the replay runs and are written out once,
when the benchmark ends.

A layer's *inclusive* time is the summed duration of its outermost spans;
its *self* time subtracts the part of each span its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _targets():
    """(owner, attribute, span name) for every wrapped layer boundary."""
    import multiprocessing.connection as mp_connection

    from repro.cluster.balancers import LeastLoadedFrontTier, LoadBalancer
    from repro.ml.forest import RandomForestClassifier
    from repro.ocl.queue import CommandQueue
    from repro.sched.backlog import BacklogAwareScheduler
    from repro.sched.online import OnlinePredictor
    from repro.serving.admission import AdmissionController
    from repro.serving.coalescer import BatchCoalescer
    from repro.serving.workers import DeviceWorker
    from repro.sim.engine import EventLoop
    from repro.telemetry.serving import BatchHistogram, ServingTelemetry
    from repro.workloads import requests as workload_requests
    from repro.workloads.mixed import MixedTrace

    return (
        (EventLoop, "run", "sim.loop"),
        (LoadBalancer, "choose", "cluster.choose"),
        (AdmissionController, "admit", "serving.admit"),
        (BatchCoalescer, "take", "serving.take"),
        (DeviceWorker, "execute", "serving.execute"),
        (BacklogAwareScheduler, "decide", "sched.decide"),
        (BacklogAwareScheduler, "estimate_completion", "sched.estimate"),
        (BacklogAwareScheduler, "record_service", "sched.record"),
        (OnlinePredictor, "observe", "online.observe"),
        (RandomForestClassifier, "predict_proba", "ml.predict"),
        (RandomForestClassifier, "fit", "ml.fit"),
        (CommandQueue, "enqueue_inference", "ocl.enqueue"),
        (CommandQueue, "enqueue_inference_virtual", "ocl.enqueue"),
        (ServingTelemetry, "record_latency", "telemetry.record"),
        (ServingTelemetry, "record_depth", "telemetry.record"),
        (BatchHistogram, "add", "telemetry.record"),
        (MixedTrace, "build", "workloads.build"),
        (workload_requests, "make_trace", "workloads.build"),
        (LeastLoadedFrontTier, "choose", "shard.front_choose"),
        (LeastLoadedFrontTier, "begin_window", "shard.front_choose"),
        # The coordinator blocks on worker pipes through this function.
        (mp_connection, "wait", "shard.wait"),
    )


class Tracer:
    """Records spans around wrapped calls into parallel arrays."""

    def __init__(self):
        self.names: "list[str]" = []
        self._ids: "dict[str, int]" = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        #: Feature rows per ``ml.predict`` span, keyed by span index.
        self.rows: "dict[int, int]" = {}
        self._stack = [-1]
        self._installed: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a root, usually)."""
        idx = self._open(self._id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        nid = self._id(name)
        opened, closed = self._open, self._close
        if name == "ml.predict":
            rows = self.rows

            @functools.wraps(fn)
            def traced_rows(obj, x, *args, **kwargs):
                idx = opened(nid)
                rows[idx] = len(x)
                try:
                    return fn(obj, x, *args, **kwargs)
                finally:
                    closed(idx)

            return traced_rows

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        return traced

    def install(self, prefixes: "tuple[str, ...]") -> None:
        """Wrap every target whose span name starts with one of ``prefixes``."""
        for owner, attr, name in _targets():
            if not name.startswith(prefixes):
                continue
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
        )

    def breakdown(self, root: int) -> "SpanBreakdown":
        """Per-name totals over the spans recorded under root span ``root``."""
        name_id, start, end, parent = self.arrays()
        hi = len(start)
        # Children are recorded after their parent and before the next
        # root, so a root's subtree is one contiguous index range.
        later_roots = np.flatnonzero(parent[root + 1:] < 0)
        if later_roots.size:
            hi = root + 1 + int(later_roots[0])
        rows = sum(n for idx, n in self.rows.items() if root <= idx < hi)
        return SpanBreakdown(
            self.names, name_id[root:hi], start[root:hi], end[root:hi],
            parent[root:hi] - root, rows,
        )

    def write(self, path: Path) -> None:
        """Dump every recorded span (name, start, end, parent) to ``path``."""
        name_id, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path, names=np.array(self.names), name_id=name_id,
            start=start, end=end, parent=parent,
        )


class SpanBreakdown:
    """Totals over one root span's subtree (index 0 is the root)."""

    def __init__(self, names, name_id, start, end, parent, predict_rows=0):
        self.predict_rows = predict_rows
        self._ids = {n: i for i, n in enumerate(names)}
        self.name_id = name_id
        self.parent = parent
        self.duration = end - start
        has_parent = parent >= 0
        cover = np.zeros_like(self.duration)
        np.add.at(cover, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - cover
        self.parent_name = np.full_like(name_id, -1)
        self.parent_name[has_parent] = name_id[parent[has_parent]]

    @property
    def wall_s(self) -> float:
        return float(self.duration[0])

    @property
    def coverage(self) -> float:
        """Share of the root's wall time covered by its child spans."""
        return 1.0 - float(self.self_time[0]) / float(self.duration[0])

    def _outer(self, name: str) -> np.ndarray:
        """Spans named ``name`` not directly nested in a same-name span."""
        nid = self._ids.get(name, -2)
        return (self.name_id == nid) & (self.parent_name != nid)

    def calls(self, name: str) -> int:
        return int(self._outer(name).sum())

    def inclusive_s(self, name: str) -> float:
        return float(self.duration[self._outer(name)].sum())

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name, -2)
        return float(self.self_time[self.name_id == nid].sum())

    def calls_under(self, name: str, parent: str) -> int:
        """Spans named ``name`` whose direct parent is named ``parent``."""
        nid = self._ids.get(name, -2)
        pid = self._ids.get(parent, -2)
        return int(((self.name_id == nid) & (self.parent_name == pid)).sum())
