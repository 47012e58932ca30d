"""In-memory spans around calls into fluxqm's modules, and their self times.

A span records one call that crosses a module boundary: its name
(``<module>.<function>``), start and end in nanoseconds, the index of the span
that caused it, the run it belongs to, whether it raised, and optional
diagnostics taken from the return value.  A call from a module into its own
public functions is not a boundary and gets no span of its own; its time is
the caller's self time.

Spans are collected from the benchmark's own code by replacing the public
functions of the listed modules with wrappers, wherever a fluxqm module binds
them; nothing inside the package changes.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Optional

LAYERS = ("cli", "phases", "spinorbit", "diracring", "linearmode", "kerr", "oracle", "tbring", "gridsolve")


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int = 0
    parent: Optional[int] = None
    run_id: str = ""
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.run_id, self.error, self.info]

    @classmethod
    def from_list(cls, item) -> "Span":
        return cls(*item)


class Tracer:
    """Collects spans in memory for one run id at a time."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per boundary call; ``observe(result)`` returns span info."""
        layer = name.partition(".")[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and spans[parent].layer == layer:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter_ns(), parent=parent, run_id=self.run_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if observe is not None:
                span.info = observe(result)
            return result

        return traced


def install(tracer: Tracer, observers: dict) -> Callable[[], None]:
    """Wrap every public function of every traced layer; returns the undo callable.

    Each function is replaced under every name a loaded ``fluxqm`` module binds
    it to, so calls through ``from .x import f`` imports are traced too.
    """
    modules = [mod for name, mod in sys.modules.items() if name == "fluxqm" or name.startswith("fluxqm.")]
    replaced = []
    for layer in LAYERS:
        mod = sys.modules[f"fluxqm.{layer}"]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if not isinstance(fn, types.FunctionType):
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, fn, observers.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapped)
                        replaced.append((holder, key, fn))

    def undo():
        for holder, key, fn in reversed(replaced):
            setattr(holder, key, fn)

    return undo


def self_times(spans) -> list:
    """Per span: its duration minus the part of its interval its children cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor, span.start), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out
