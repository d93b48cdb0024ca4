"""Timing probes installed from outside the program under test.

The benchmark never edits ``src/``: it measures a layer by replacing a
public function or method with a wrapper for the duration of a pass and
putting the original back afterwards.  Three wrapper kinds exist:

* ``span``   — records ``(name, start, end, parent)`` into a
  :class:`Recorder`; the per-layer self times come from these;
* ``count``  — only counts calls (for functions too hot to span, such as
  the telemetry mode check that runs once per event);
* ``sample`` — appends the call's latency to a sample list (the
  end-to-end ``report_ms`` and ingest latencies, timed at the caller).

Targets are written ``"module:Qualified.attr"`` (or ``"module:function"``).
A module-level function is replaced in every loaded ``repro`` module
that holds a reference to it, so ``from x import f`` callers are
covered too.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from perfbench.measure import Span


class Recorder:
    """Spans, call counts, latency samples and ad-hoc tallies of one pass.

    Spans are kept in memory as ``[name, start, end, parent]`` lists and
    nest through a stack: the program runs serially in one thread (the
    benchmark uses the ``serial`` runtime), so the innermost open span is
    the parent of the next one.
    """

    def __init__(self) -> None:
        self.raw_spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.objects: dict[str, dict[int, object]] = {}

    def open(self, name: str) -> int:
        index = len(self.raw_spans)
        parent = self._stack[-1] if self._stack else -1
        self.raw_spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.raw_spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def keep(self, kind: str, obj: object) -> None:
        """Remember an object seen during the pass (e.g. every feature cache)."""
        self.objects.setdefault(kind, {})[id(obj)] = obj

    def spans(self) -> list[Span]:
        return [Span(name, start, end, parent) for name, start, end, parent in self.raw_spans]


#: ``observe(recorder, args, result)`` — extra tallies taken after a call.
Observer = Callable[[Recorder, tuple, object], None]


@dataclass(frozen=True)
class Probe:
    """One wrapped target: where it lives, what it is called, how it is timed."""

    target: str
    name: str
    kind: str = "span"
    observe: Optional[Observer] = None
    #: Position of a callable argument to wrap as a ``runtime.task`` span
    #: (``TaskRunner.map`` runs task bodies the benchmark must tell apart
    #: from the runner's own bookkeeping).
    task_arg: Optional[int] = None


def _wrap(probe: Probe, original: Callable, recorder: Recorder) -> Callable:
    name, observe, clock = probe.name, probe.observe, time.perf_counter
    if probe.kind == "count":

        @functools.wraps(original)
        def counted(*args, **kwargs):
            recorder.counts[name] = recorder.counts.get(name, 0) + 1
            result = original(*args, **kwargs)
            if observe is not None:
                observe(recorder, args, result)
            return result

        return counted
    if probe.kind == "sample":
        samples = recorder.samples.setdefault(name, [])

        @functools.wraps(original)
        def sampled(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(clock() - started)

        return sampled
    if probe.kind != "span":
        raise ValueError(f"unknown probe kind {probe.kind!r}")
    task_arg = probe.task_arg

    @functools.wraps(original)
    def spanned(*args, **kwargs):
        if task_arg is not None and len(args) > task_arg:
            args = list(args)
            args[task_arg] = _task_span(args[task_arg], recorder)
        index = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if observe is not None:
            observe(recorder, args, result)
        return result

    return spanned


def _task_span(function: Callable, recorder: Recorder) -> Callable:
    @functools.wraps(function)
    def task(*args, **kwargs):
        index = recorder.open("runtime.task")
        try:
            return function(*args, **kwargs)
        finally:
            recorder.close(index)

    return task


def _resolve(target: str) -> tuple[object, str, object, bool]:
    """``(owner, attr, raw attribute, owner defines it)`` for a target spec."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                return owner, attr, klass.__dict__[attr], klass is owner
        raise AttributeError(f"{target}: no attribute {attr!r}")
    return owner, attr, getattr(owner, attr), True


@contextmanager
def installed(probes: Sequence[Probe], recorder: Recorder) -> Iterator[Recorder]:
    """Install every probe for the block; always restore the originals."""
    undo: list[Callable[[], None]] = []
    try:
        for probe in probes:
            owner, attr, raw, defined = _resolve(probe.target)
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    replacement = type(raw)(_wrap(probe, raw.__func__, recorder))
                else:
                    replacement = _wrap(probe, raw, recorder)
                setattr(owner, attr, replacement)
                if defined:
                    undo.append(functools.partial(setattr, owner, attr, raw))
                else:
                    undo.append(functools.partial(delattr, owner, attr))
            else:
                wrapper = _wrap(probe, raw, recorder)
                for module_name, module in list(sys.modules.items()):
                    if module is None or not (
                        module_name == "repro" or module_name.startswith("repro.")
                    ):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapper)
                            undo.append(functools.partial(setattr, module, key, raw))
        yield recorder
    finally:
        for step in reversed(undo):
            step()
