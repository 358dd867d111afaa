"""In-memory call spans recorded by wrapping the module attributes callers resolve.

A span is (name, start, end, parent, raised). The tracer replaces a function
that a module looks up by name (``module.attr``) with a wrapper that records
one span per call while tracing is enabled; ``restore`` puts every original
back. Forked worker processes inherit the wrappers: each worker starts with
an empty buffer and writes its spans to the worker directory when it exits,
so the parent can merge them after the pool has shut down.
"""

import functools
import multiprocessing.util
import os
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# Allowed mismatch between a span's duration and its self time plus the
# durations of its children, in seconds.
NESTING_TOLERANCE = 1e-9


@dataclass
class Spans:
    """Spans of one or more processes as flat arrays; parent is -1 for a root."""

    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    raised: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def __len__(self) -> int:
        return len(self.start)


class Tracer:
    """Wraps module attributes and records a span for each call while enabled."""

    def __init__(self, worker_dir=None):
        self.names = []
        self._name_ids = {}
        self._patched = []
        self.enabled = False
        self.worker_dir = Path(worker_dir) if worker_dir is not None else None
        self._reset()
        if self.worker_dir is not None:
            multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self):
        self._name_id = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._raised = array("b")
        self._stack = []

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a recording wrapper that reports as `name`."""
        original = getattr(module, attr)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            idx = len(self._start)
            self._name_id.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._raised.append(0)
            self._end.append(0.0)
            self._stack.append(idx)
            self._start.append(perf_counter())
            try:
                return original(*args, **kwargs)
            except BaseException:
                self._raised[idx] = 1
                raise
            finally:
                self._end[idx] = perf_counter()
                self._stack.pop()

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> list:
        """Put every wrapped attribute back; returns the (module, attr, original) list."""
        self.enabled = False
        restored = list(reversed(self._patched))
        for module, attr, original in restored:
            setattr(module, attr, original)
        self._patched.clear()
        return restored

    def spans(self) -> Spans:
        return Spans(name_id=np.frombuffer(self._name_id, dtype=np.int32).copy(),
                     start=np.frombuffer(self._start, dtype=np.float64).copy(),
                     end=np.frombuffer(self._end, dtype=np.float64).copy(),
                     parent=np.frombuffer(self._parent, dtype=np.int32).copy(),
                     raised=np.frombuffer(self._raised, dtype=np.int8).copy())

    def _after_fork(self):
        # runs in a process forked by multiprocessing, after its own at-fork setup
        if not self.enabled:
            return
        self._reset()
        multiprocessing.util.Finalize(self, self._write_worker_spans, exitpriority=10)

    def _write_worker_spans(self):
        sp = self.spans()
        np.savez(self.worker_dir / f"spans-{os.getpid()}.npz", name_id=sp.name_id,
                 start=sp.start, end=sp.end, parent=sp.parent, raised=sp.raised)

    def take_worker_spans(self) -> list:
        """Load and delete the span files written by exited worker processes."""
        if self.worker_dir is None:
            return []
        out = []
        for path in sorted(self.worker_dir.glob("spans-*.npz")):
            with np.load(path) as data:
                out.append(Spans(**{k: data[k] for k in Spans.__dataclass_fields__}))
            path.unlink()
        return out


def merge(parts) -> Spans:
    """Concatenate per-process spans, shifting parent indices to the merged layout."""
    parents, offset = [], 0
    for sp in parts:
        parents.append(np.where(sp.parent >= 0, sp.parent + offset, -1))
        offset += len(sp)
    return Spans(name_id=np.concatenate([sp.name_id for sp in parts]),
                 start=np.concatenate([sp.start for sp in parts]),
                 end=np.concatenate([sp.end for sp in parts]),
                 parent=np.concatenate(parents).astype(np.int32),
                 raised=np.concatenate([sp.raised for sp in parts]))


def self_times(sp: Spans) -> np.ndarray:
    """Each span's duration minus the part of its interval that its children cover."""
    start, end, parent = sp.start.tolist(), sp.end.tolist(), sp.parent.tolist()
    covered = [0.0] * len(start)
    kids = np.flatnonzero(sp.parent >= 0)
    order = kids[np.lexsort((sp.start[kids], sp.parent[kids]))].tolist()
    current, reach = -1, 0.0
    for c in order:
        p = parent[c]
        if p != current:
            current, reach = p, start[p]
        lo = max(start[c], reach)
        hi = min(end[c], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return sp.duration - np.asarray(covered)


def nesting_errors(sp: Spans, self_s: np.ndarray) -> int:
    """Spans whose self time plus their children's durations differs from their duration."""
    dur = sp.duration
    kids = sp.parent >= 0
    child_sum = np.bincount(sp.parent[kids], weights=dur[kids], minlength=len(sp))
    return int(np.count_nonzero(np.abs(self_s + child_sum - dur) > NESTING_TOLERANCE))
