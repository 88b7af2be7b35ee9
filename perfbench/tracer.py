"""In-memory span tracer that wraps tentropy's public functions from outside.

The tracer rebinds each named function in every loaded ``tentropy.*`` module
namespace (including the package itself), so calls made through
``from .x import f`` bindings are traced too. A name that does not exist is
recorded as absent instead of raising, so the benchmark keeps running when a
refactor moves or deletes a function.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` is the benchmark operation id that
was current when the span opened.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self, names, observers=None):
        self.names = tuple(names)
        self.observers = dict(observers or {})
        self.spans: list[tuple] = []
        self.returned: dict[str, int] = {}
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        returned = self.returned
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            op = self.op
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            returned[name] = returned.get(name, 0) + 1
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every named function; unknown modules or names become absent."""
        for name in self.names:
            module_name, _, attr = name.rpartition(".")
            try:
                module = importlib.import_module(f"tentropy.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, fn)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "tentropy" and not mod_name.startswith("tentropy."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    def write(self, path) -> None:
        """Write the spans and the absent names as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "absent": self.absent,
            "spans": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans],
        }
        Path(path).write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
