"""In-memory spans around calls into ``bdgeom``, recorded from outside.

``Tracer.wrap`` replaces a function or method at the name its callers look
up (a module global or a class attribute) with a wrapper that records one
span per call: name, start, end, parent span and an optional unit count
taken from the call.  ``Tracer.span`` records a span around a block of the
benchmark's own code.  Spans live in flat arrays until ``save`` writes them
out, and ``restore`` puts every wrapped name back.
"""
from __future__ import annotations

import contextlib
import functools
import time
from array import array
from typing import Callable, Optional

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.units.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        units: Optional[Callable[[tuple, object], float]] = None,
    ) -> None:
        """Record a span named ``name`` on every call of ``owner.attr``.

        ``units(args, result)``, when given, is stored with the span (for
        example the number of events a call produced).
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    self.units[idx] = float(units(args, result))
                return result
            finally:
                self._close(idx)

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._installed.append((owner, attr, raw))

    def restore(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "units": np.frombuffer(self.units, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Per-name totals of a finished trace, optionally split by root span."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name_id = a["name_id"]
        self.duration = a["end"] - a["start"]
        self.units = a["units"]
        parent = a["parent"]
        # children never overlap in single-threaded code, so a span's self
        # time is its duration minus the sum of its children's durations
        child_time = np.zeros(len(parent))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child_time
        # root of each span, by pointer jumping up the parent links
        root = np.where(has_parent, parent, np.arange(len(parent)))
        while True:
            hop = root[root]
            if np.array_equal(hop, root):
                break
            root = hop
        self.root_name = self.name_id[root]

    def _mask(self, name: str, under: Optional[str]) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        mask = self.name_id == self.names.index(name)
        if under is not None:
            if under not in self.names:
                return np.zeros(len(self.name_id), dtype=bool)
            mask &= self.root_name == self.names.index(under)
        return mask

    def calls(self, name: str, under: Optional[str] = None) -> int:
        return int(np.count_nonzero(self._mask(name, under)))

    def total(self, name: str, under: Optional[str] = None) -> float:
        return float(self.duration[self._mask(name, under)].sum())

    def self_total(self, name: str, under: Optional[str] = None) -> float:
        return float(self.self_time[self._mask(name, under)].sum())

    def unit_total(self, name: str, under: Optional[str] = None) -> float:
        return float(self.units[self._mask(name, under)].sum())
