"""Span recording for the benchmark's traced run.

Workloads call qpart's functions directly and mark items and phases with
`rec.item(...)` and `rec.phase(...)`. The untraced `Direct` recorder
makes those no-ops. The `Tracer` keeps one span per item, phase and
traced call (name, start, end, parent, item id) in memory; inside
`Tracer.nested` the traced qpart functions are replaced by wrappers in
every module that holds them, the benchmark's and qpart's own, so calls
made inside qpart (such as `ground_states` calling `energy_vector`) show
up as child spans too.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


class Direct:
    """Untraced recorder: nothing is kept."""

    def item(self, item_id: str):
        return contextlib.nullcontext()

    def phase(self, name: str):
        return contextlib.nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None


class Tracer:
    """Spans held in memory; `to_json` writes them out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._item: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._item))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextlib.contextmanager
    def item(self, item_id: str):
        outer = self._item
        self._item = item_id
        try:
            with self.span("perfbench.item"):
                yield
        finally:
            self._item = outer

    def phase(self, name: str):
        return self.span(f"perfbench.{name}")

    @contextlib.contextmanager
    def nested(self, targets: list[tuple[str, str]]):
        """Trace every call to the named `(module, function)` targets.

        Every loaded module that holds the original function object (its
        own module, and modules that imported it by name, the workloads
        included) gets a wrapper for the duration of the block. The span
        is named `module.function` after the last part of the module name.
        """
        patched: list[tuple[Any, str, Any]] = []
        try:
            for module_name, func_name in targets:
                original = getattr(sys.modules[module_name], func_name)
                wrapper = self._wrapper(f"{module_name.split('.')[-1]}.{func_name}", original)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__dict__", {}).get(func_name) is original:
                        patched.append((mod, func_name, original))
                        setattr(mod, func_name, wrapper)
            yield
        finally:
            for mod, func_name, original in reversed(patched):
                setattr(mod, func_name, original)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self, root: int) -> dict[str, float]:
        """Self time by span name over the subtree under `root` (root included).

        A span's self time is its duration minus its children's; calls run
        on one thread, so children never overlap.
        """
        inside = {root}
        child_time = [0.0] * len(self.spans)
        totals: dict[str, float] = {}
        for i in range(root, len(self.spans)):
            s = self.spans[i]
            if i != root and s.parent not in inside:
                continue
            inside.add(i)
            if i != root:
                child_time[s.parent] += s.end - s.start
        for i in sorted(inside):
            s = self.spans[i]
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - child_time[i]
        return totals

    def to_json(self) -> list[dict[str, Any]]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "item": s.item}
            for s in self.spans
        ]
