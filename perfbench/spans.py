"""Span tracing of the program's layers, from the benchmark's own files.

:class:`Tracer` replaces a layer's public function with a wrapper that
records one span per call: layer name, start, end and the span that was
open when it began (its parent). Spans live in flat in-memory arrays and
are written out once, when the run ends. A layer's self time is its spans'
durations minus the durations of their child spans.

Modules import these functions by name (``repro.service.server`` imports
``decode_payload``), so a function is rebound at every point of use: each
loaded ``repro`` module attribute that *is* the original object. Methods
are wrapped on their class. A function or method that no longer exists is
reported as absent, never as an error, so renaming a layer leaves the
benchmark runnable.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

_MISSING = object()


def rebind(original: object, replacement: object) -> list[tuple[object, str]]:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``; return the ``(module, attribute)`` pairs changed."""
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def _resolve(dotted: str) -> tuple[object, str, object]:
    """``"pkg.mod:Class.attr"`` -> (owner, attr, current value) or raise."""
    module_name, _, path = dotted.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    value = owner.__dict__.get(attr, _MISSING) if inspect.isclass(owner) \
        else getattr(owner, attr, _MISSING)
    if value is _MISSING:
        raise AttributeError(f"{dotted} does not exist")
    return owner, attr, value


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.starts = array("q")
        self.ends = array("q")
        self.layer_of = array("i")
        self.parents = array("i")
        self._open: list[int] = []
        #: Extra per-layer tallies (bytes moved, cache hits, ...).
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._undo: list[Callable[[], None]] = []

    # ---------------------------------------------------------- recording

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _begin(self, layer_id: int) -> int:
        span = len(self.starts)
        self.parents.append(self._open[-1] if self._open else -1)
        self.layer_of.append(layer_id)
        self.ends.append(0)
        self._open.append(span)
        self.starts.append(time.perf_counter_ns())
        return span

    def _finish(self, span: int) -> None:
        self.ends[span] = time.perf_counter_ns()
        if self._open[-1] == span:
            self._open.pop()
        else:  # an awaited span resumed after spans of another task
            self._open.remove(span)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, layer: str, fn: Callable, tally=None) -> Callable:
        """A span-recording wrapper around ``fn`` (async-aware).

        ``tally(args, result)`` (optional) runs after each call and may
        add to :attr:`counters`.
        """
        layer_id = self._layer_id(layer)
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span = self._begin(layer_id)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._finish(span)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if tally is not None:
                tally(args, result)
            return result
        return traced

    # ----------------------------------------------------------- patching

    def patch(self, layer: str, target: str, tally=None) -> bool:
        """Wrap ``target`` (``"module:function"`` or ``"module:Class.method"``).

        Returns False, and records the target as absent, when it cannot be
        found.
        """
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        wrapper = self.wrap(layer, original, tally)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            changed = rebind(original, wrapper)
            self._undo.append(lambda: [setattr(module, name, original)
                                       for module, name in changed])
        return True

    def hook(self, target: str, replacement_factory) -> bool:
        """Replace ``target`` by ``replacement_factory(original)`` (no span)."""
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        replacement = replacement_factory(original)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))
        return True

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ----------------------------------------------------------- analysis

    def mark(self) -> int:
        """The index the next span will get (a phase boundary)."""
        return len(self.starts)

    def layer_totals(
        self, since: int = 0, until: int | None = None
    ) -> dict[str, tuple[int, float]]:
        """``layer -> (calls, self seconds)`` over spans ``[since, until)``.

        Self time subtracts every child span, so nested calls of one layer
        (a wrapped ``__init__`` calling its wrapped parent) count once.
        """
        count = len(self.starts)
        if count == 0:
            return {}
        starts = np.frombuffer(self.starts, dtype=np.int64)
        ends = np.frombuffer(self.ends, dtype=np.int64)
        durations = np.where(ends > 0, ends - starts, 0).astype(np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=count
        )
        own = np.maximum(durations - child_time, 0.0)
        layer_of = np.frombuffer(self.layer_of, dtype=np.int32)
        window = slice(since, count if until is None else until)
        calls = np.bincount(layer_of[window], minlength=len(self.layers))
        seconds = np.bincount(
            layer_of[window], weights=own[window], minlength=len(self.layers)
        ) / 1e9
        return {
            layer: (int(calls[index]), float(seconds[index]))
            for index, layer in enumerate(self.layers)
        }

    def dump(self, path: Path) -> Path:
        """Write every span (and the layer names) to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layers=np.array(self.layers),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
            layer=np.frombuffer(self.layer_of, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )
        return path
