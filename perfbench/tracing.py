"""Span recording around the calls into each layer of the simulator.

The traced run wraps the public callables of each layer *from the
benchmark's own files*: :class:`Patcher` swaps the attribute a caller
actually resolves (a class method, or a module global such as
``repro.core.esd.line_ecc``, which ESD binds at import) for a wrapper
that records one span per call, and restores every original on exit.
The simulator itself carries no tracing code.

Each span records name, start, end, parent span and cell id in compact
parallel arrays (about 28 bytes a span); :meth:`SpanRecorder.dump`
writes them out when the run ends.  A span's *self* time is its
duration minus the part of its interval covered by its children
(:func:`self_times`).  Spans use ``perf_counter_ns``: the traced phase
is single-threaded, and the process CPU clock costs four times as much
per read.
"""

from __future__ import annotations

import json
import sys
import time
import zlib
from array import array
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

_clock = time.perf_counter_ns


class SpanRecorder:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.cell = array("i")
        self._stack: List[int] = [-1]
        #: Cell id stamped on new spans; the simulation phase sets it.
        self.cell_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: int, end: int, parent: int = -1,
            cell: int = -1) -> int:
        """Append a finished span (hand-built trees and tests)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.cell.append(cell)
        return idx

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` recording one ``name`` span per call."""
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, cells, stack = self.parent, self.cell, self._stack
        recorder = self

        @wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            cells.append(recorder.cell_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                starts[idx] = t0
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of the benchmark's own code."""
        idx = self.add(name, 0, 0, self._stack[-1], self.cell_id)
        self._stack.append(idx)
        t0 = _clock()
        try:
            yield
        finally:
            self.end[idx] = _clock()
            self.start[idx] = t0
            self._stack.pop()

    def dump(self, path: Path) -> int:
        """Write every span, zlib-compressed; returns the byte count.

        Layout: a JSON header line (span names, count, field order)
        followed by the compressed concatenation of the five arrays.
        """
        header = json.dumps({"names": self.names, "spans": len(self),
                             "fields": ["name:i32", "start_ns:i64",
                                        "end_ns:i64", "parent:i32",
                                        "cell:i32"],
                             "byteorder": sys.byteorder}).encode()
        body = zlib.compress(b"".join(
            a.tobytes() for a in (self.name, self.start, self.end,
                                  self.parent, self.cell)), 1)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(header + b"\n" + body)
        return len(header) + 1 + len(body)


def self_times(start: array, end: array, parent: array) -> array:
    """Per-span self time: duration minus the union of its children.

    Children may overlap each other or stick out of their parent; only
    the part of the parent's interval they cover is subtracted.
    """
    n = len(start)
    out = array("q", (end[i] - start[i] for i in range(n)))
    covered_to = array("q", start)  # per parent: end of covered prefix
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], covered_to[p])
        hi = min(end[i], end[p])
        if hi > lo:
            out[p] -= hi - lo
            covered_to[p] = hi
    return out


def layer_totals(rec: SpanRecorder, selfs: array
                 ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_ns`` and ``incl_ns``.

    ``selfs`` is :func:`self_times` of ``rec``.  ``incl_ns`` sums only
    the outermost span of each nest of same-name spans, so a wrapper
    re-entering itself is not counted twice.
    """
    out = {name: {"calls": 0, "self_ns": 0, "incl_ns": 0}
           for name in rec.names}
    names, parent = rec.name, rec.parent
    for i in range(len(rec)):
        entry = out[rec.names[names[i]]]
        entry["calls"] += 1
        entry["self_ns"] += selfs[i]
        p = parent[i]
        while p >= 0 and names[p] != names[i]:
            p = parent[p]
        if p < 0:
            entry["incl_ns"] += rec.end[i] - rec.start[i]
    return out


class Patcher:
    """Swaps attributes for wrappers and puts the originals back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_methods(self, rec: SpanRecorder, cls: type, span: str,
                     methods: Tuple[str, ...]) -> None:
        for method in methods:
            if method in vars(cls):
                self.patch(cls, method, rec.wrap(span, vars(cls)[method]))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


#: (module, method names, span name): every class a module defines that
#: has one of the methods gets it wrapped.
_CLASS_LAYERS: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    ("repro.workloads.generator", ("generate_list",), "workloads.gen"),
    ("repro.sim.session", ("feed",), "sim.feed"),
    ("repro.sim.session", ("finalize",), "sim.finalize"),
    ("repro.crypto.counter_mode", ("encrypt", "decrypt", "decrypt_at"),
     "crypto.encrypt"),
    ("repro.crypto.fingerprints", ("fingerprint",), "crypto.fingerprint"),
    ("repro.core.efit", ("lookup", "insert"), "core.efit"),
    ("repro.nvmm.controller", ("read", "write", "write_partial",
                               "metadata_read", "metadata_write"),
     "nvmm.controller"),
    ("repro.common.timeline", ("__init__", "serial", "advance_to", "branch",
                               "join", "overlap_with", "parallel", "seal",
                               "fold_into"), "common.timeline"),
    ("repro.vec.epoch", ("precompute",), "vec.precompute"),
)

def install(rec: SpanRecorder, patcher: Patcher) -> List[str]:
    """Wrap every traced layer; returns the span names left absent.

    ``line_ecc`` is wrapped wherever a loaded ``repro`` module binds it,
    because ESD imports it by name.  A layer whose module is gone (for
    example ``repro.vec``, which the roadmap deletes) is reported absent
    rather than failing the run.
    """
    import importlib
    absent: List[str] = []
    for module_name, methods, span in _CLASS_LAYERS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(span)
            continue
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module_name:
                patcher.wrap_methods(rec, value, span, methods)
    from repro.ecc import codec
    original = codec.line_ecc
    wrapped = rec.wrap("ecc.line_ecc", original)
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro.") and module is not None
                and getattr(module, "line_ecc", None) is original):
            patcher.patch(module, "line_ecc", wrapped)
    return absent


def wrap_scheme(rec: SpanRecorder, scheme: Any) -> None:
    """Wrap one scheme instance's request handlers.

    Instance attributes shadow the class methods for the session's
    hoisted ``scheme.handle_write`` lookups, and leave the scheme's own
    ``super()`` calls unwrapped, so each request yields one span.
    """
    scheme.handle_write = rec.wrap("dedup.write", scheme.handle_write)
    scheme.handle_read = rec.wrap("dedup.read", scheme.handle_read)
