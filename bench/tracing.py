"""Span recording around calls into the package, installed from outside.

``Recorder.install`` replaces a function in every ``goodstein`` module
namespace that binds it. That matters because ``from .numerals import
to_digits`` copies the binding into ``sequences``, ``descent``,
``hereditary`` and ``cli``; patching only ``numerals`` would miss every
call made through those copies, and recursive calls go through the
defining module's own global.

Spans live in flat arrays (name, start, end, parent, size) while the run
goes, so that a run of a million calls stays a few tens of megabytes, and
are written out once at the end. A span's self time is its duration minus
the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import json
import statistics
import sys
from array import array
from time import perf_counter
from typing import Callable, Optional


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.size = array("i")
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int, size: int) -> int:
        span = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        """Time every call of ``fn`` as a span; ``size(*args)`` is stored with it."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            span = self._open(name_id, size(*args) if size else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def wrap_iterator(self, name: str, fn: Callable, on_item: Callable) -> Callable:
        """Time each ``next`` of the iterator ``fn`` returns as a span.

        The wrapped iterator re-raises StopIteration with its value, so
        callers that read a generator's return value still get it.
        """
        name_id = self._name_id(name)
        recorder = self

        class Traced:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                span = recorder._open(name_id, 0)
                try:
                    item = next(self.inner)
                finally:
                    recorder._close(span)
                on_item(item)
                return item

        return lambda *args, **kwargs: Traced(fn(*args, **kwargs))

    def install(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` to ``replacement`` in every goodstein module that binds it."""
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module_name != "goodstein" and not module_name.startswith("goodstein."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    bound += 1
        if not bound:
            raise LookupError(f"{original.__qualname__} is bound in no goodstein module")

    def layers(self) -> dict[str, dict]:
        """Per span name: call count, total self seconds, and the sizes seen."""
        n = len(self.start)
        child_time = array("d", bytes(8 * n))
        for span in range(n):
            parent = self.parent[span]
            if parent >= 0:
                child_time[parent] += self.end[span] - self.start[span]
        out = {name: {"calls": 0, "self_s": 0.0, "size_sum": 0, "widest": 0, "widest_s": []}
               for name in self.names}
        for span in range(n):
            entry = out[self.names[self.name_of[span]]]
            duration = self.end[span] - self.start[span]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[span]
            size = self.size[span]
            entry["size_sum"] += size
            if size > entry["widest"]:
                entry["widest"], entry["widest_s"] = size, [duration]
            elif size and size == entry["widest"]:
                entry["widest_s"].append(duration)
        for entry in out.values():
            entry["widest_s"] = statistics.median(entry["widest_s"]) if entry["widest_s"] else 0.0
        return out

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays in header order."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name_of", "i"], ["start", "d"], ["end", "d"], ["parent", "i"], ["size", "i"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(handle)
