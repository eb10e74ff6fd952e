"""Span tracer installed around the program's public callables from outside.

The program is not edited and ``repro.obs`` stays disabled: a traced run
replaces the callables named by :class:`Target` with timing wrappers
(class methods on the class that defines them; module functions in every
loaded module whose global *is* the original object, so ``from x import
f`` call sites are covered; generators timed per ``next()``), records one
span per call on an in-memory stack, and puts every original back on
:meth:`Tracer.uninstall`.

A span is the list ``[name, start, end, parent, op, note]``: *parent* is
the index of the span that was open when this one began (-1 for a root),
*op* the identifier shared by every span of one timed operation (None
outside the timed phase), *note* an optional number measured at the same
boundary (pairs in a kernel call, bytes appended to the log).  A span's
self time is its duration minus the part its children cover.

Pool workers are forked from the traced process and would inherit the
wrappers; the tracer switches itself off in a forked child, so workers
run the originals and their cost enters the trace only through the
parent's span around the pool call.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

NAME, START, END, PARENT, OP, NOTE = range(6)


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    *owner* is ``"package.module"`` for a module function or
    ``"package.module:Class"`` for a method defined on that class.
    *note*, when given, is called with ``(args, kwargs)`` before the
    call and returns a function of the result whose value is stored in
    the span.
    """

    span: str
    owner: str
    attr: str
    generator: bool = False
    note: Callable | None = None


@dataclass
class Aggregate:
    """Totals over the spans of one name."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    notes: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self.active = False

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
        self.spans.append(span)
        stack.append(index)
        span[START] = perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, op=None):
        """A span opened by the benchmark itself; *op* tags every span
        recorded inside it as part of one timed operation."""
        previous, self._op = self._op, op
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)
            self._op = previous

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, original, note):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            finish = note(args, kwargs) if note is not None else None
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if finish is not None:
                tracer.spans[index][NOTE] = finish(result)
            return result

        return wrapper

    def _timed_generator(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            if not tracer.active:
                return iterator
            return tracer._iterate(name, iterator)

        return wrapper

    def _iterate(self, name: str, iterator):
        """One span per ``next()``: the time between two yields belongs
        to the consumer, not to the generator."""
        while True:
            index = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(index)
            yield item

    # -- patching ----------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            module_name, _, class_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                if target.attr not in vars(cls):
                    raise RuntimeError(
                        f"{target.owner} does not define {target.attr}"
                    )
                original = vars(cls)[target.attr]
                holders = [cls]
            else:
                # Every ``from module import attr`` made a global that is
                # the same object; a call site is covered only if its own
                # module's global is replaced.
                original = getattr(module, target.attr)
                holders = [
                    mod
                    for mod in list(sys.modules.values())
                    if getattr(mod, "__dict__", None) is not None
                ]
            if target.generator:
                wrapper = self._timed_generator(target.span, original)
            else:
                wrapper = self._timed(target.span, original, target.note)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "op": span[OP],
                            "note": span[NOTE],
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def aggregate(spans: list[list], *, timed_only: bool) -> dict[str, Aggregate]:
    """Per-name totals; with *timed_only*, over spans of timed ops only."""
    own = self_times(spans)
    totals: dict[str, Aggregate] = defaultdict(Aggregate)
    for span, self_time in zip(spans, own):
        if timed_only and span[OP] is None:
            continue
        agg = totals[span[NAME]]
        agg.calls += 1
        agg.total += span[END] - span[START]
        agg.self_time += self_time
        if span[NOTE] is not None:
            agg.notes += span[NOTE]
    return totals
