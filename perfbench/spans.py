"""Span tracing installed from outside the program.

:class:`Tracer` wraps functions and methods of the program's modules
with timing wrappers.  Each wrapper opens a span named after its layer,
so a layer's *self time* is its spans' duration minus the part their
child spans cover (child spans are calls into other wrapped functions
made while the span is open).  Patching replaces the attribute callers
actually look up: a class attribute for methods (bound methods are
looked up through the class when the program schedules them), and for
module functions every loaded ``repro`` module that imported the same
function object by name.  A coroutine function is wrapped so that each
step of its coroutines (the code between two suspensions) is a span;
the time a coroutine spends suspended at an ``await`` belongs to no
span.

Everything stays in memory: per-layer call counts and self time, plus
the first :attr:`Tracer.keep_spans` spans with their parent links, which
:meth:`Tracer.dump` writes as JSON when the benchmark ends.
"""

from __future__ import annotations

import collections.abc
import functools
import json
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer"]

Hook = Callable[[Tuple[Any, ...], Any], None]


class Tracer:
    """Collects per-layer self time and call counts from wrapped calls."""

    def __init__(self, keep_spans: int = 20_000):
        self.keep_spans = keep_spans
        #: layer -> [calls, self seconds]
        self.layers: Dict[str, List[float]] = {}
        #: counters filled by hooks (bytes encoded, MVCC conflicts, ...)
        self.counts: Dict[str, float] = {}
        #: (span id, parent id, layer, start s, end s) of the first spans
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._stack: List[List[float]] = []  # [child seconds, span id]
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        self.origin = perf_counter()

    # ------------------------------------------------------------------
    # installing wrappers

    def _wrapper(self, fn: Callable, layer: str, hook: Optional[Hook]) -> Callable:
        stats = self.layers.setdefault(layer, [0, 0.0])
        stack = self._stack
        spans = self.spans
        keep = self.keep_spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = int(stack[-1][1]) if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span_id < keep:
                    spans.append((span_id, parent, layer, start, end))
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped_by_tracer__ = True  # type: ignore[attr-defined]
        return traced

    def wrap_method(self, cls: type, name: str, layer: str, hook: Optional[Hook] = None) -> None:
        """Wrap ``cls.name`` (defined on ``cls`` itself)."""
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, self._wrapper(original, layer, hook))

    def wrap_coroutine_method(self, cls: type, name: str, layer: str) -> None:
        """Wrap the coroutine function ``cls.name``: every step of the
        coroutines it returns is a span of ``layer``."""
        original = cls.__dict__[name]
        step = self._wrapper(lambda advance, arg: advance(arg), layer, None)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return _StepTimed(original(*args, **kwargs), step)

        self._patches.append((cls, name, original))
        setattr(cls, name, traced)

    def wrap_function(self, module, name: str, layer: str, hook: Optional[Hook] = None) -> None:
        """Wrap a module function wherever a ``repro`` module imported it."""
        original = getattr(module, name)
        traced = self._wrapper(original, layer, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # reading results

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, layer: str) -> int:
        return int(self.layers.get(layer, (0, 0.0))[0])

    def self_s(self, *layers: str) -> float:
        return sum(self.layers.get(layer, (0, 0.0))[1] for layer in layers)

    def total_self_s(self) -> float:
        return sum(stats[1] for stats in self.layers.values())

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the aggregates and the kept spans as one JSON document."""
        doc = {
            "layers": {
                layer: {"calls": int(c), "self_s": s}
                for layer, (c, s) in sorted(self.layers.items())
            },
            "counts": self.counts,
            "spans_kept": len(self.spans),
            "spans_total": self._next_id,
            "spans": [
                {"id": i, "parent": p, "layer": layer,
                 "start_s": start - self.origin, "end_s": end - self.origin}
                for i, p, layer, start, end in self.spans
            ],
        }
        doc.update(extra)
        with open(path, "w") as fp:
            json.dump(doc, fp)


class _StepTimed(collections.abc.Coroutine):
    """A coroutine that runs ``coro`` one step at a time, each step
    through ``step`` (a span wrapper), so suspensions are not timed."""

    def __init__(self, coro, step: Callable):
        self._coro = coro
        self._step = step

    def send(self, value):
        return self._step(self._coro.send, value)

    def throw(self, *exc):
        return self._step(lambda args: self._coro.throw(*args), exc)

    def close(self):
        self._coro.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)
