"""Span tracing for the benchmark's traced run.

The benchmark never edits the program.  It wraps public entry points of each
layer (``Conv1d.forward``, ``QuantizedModel.sync``,
``BitFlipCalibrator.calibration_step`` …) from outside, for the duration of
one traced step, and restores the originals afterwards — also when the step
raises.

Spans live in memory as ``[name, start, end, parent, batch]`` lists (``parent``
is the index of the enclosing span or ``None``) and are written out once, at
the end of the run.  A layer's *self time* is its span's duration minus the
durations of its direct child spans, so the self times of every span under a
root add up to the root's duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Span = List[Any]  # [name, start, end, parent index or None, batch id]


class Tracer:
    """Collects spans and counts in memory.

    ``batch`` tags every span opened while it is set (the benchmark sets it to
    the step index).  While an *opaque* span is open, nested wrapped calls run
    untraced: their time belongs to the opaque span (used for the BF network,
    whose internal conv/dense layers are not the backbone's).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[str, str], float] = {}
        self.batch = -1
        self._stack: List[int] = []
        self._opaque = 0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, opaque: bool = False) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if self._opaque:
            return fn(*args, **kwargs)
        with self.span(name):
            self._opaque += opaque
            try:
                return fn(*args, **kwargs)
            finally:
                self._opaque -= opaque

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a span around a block (the benchmark's own step and setup roots)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.batch])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.clock()

    def count(self, key: str, amount: float = 1.0, root: Optional[str] = None) -> None:
        """Add ``amount`` to counter ``key`` under ``root`` (by default the
        name of the outermost open span)."""
        if self._opaque:
            return
        if root is None:
            root = self.spans[self._stack[0]][0] if self._stack else ""
        self.counts[(root, key)] = self.counts.get((root, key), 0.0) + amount

    def write(self, path: Path) -> None:
        """Write every span and count to ``path`` as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "fields": ["name", "start", "end", "parent", "batch"],
            "spans": self.spans,
            "counts": [[root, key, value] for (root, key), value in sorted(self.counts.items())],
        }
        path.write_text(json.dumps(document))


# --------------------------------------------------------------------- probes
@dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    ``owner`` is a class or a module and ``attr`` the attribute to wrap.
    ``before(args, kwargs)`` may capture a value ahead of the call;
    ``after(tracer, args, kwargs, result, captured)`` may record counts and
    returns the (possibly replaced) result.
    """

    owner: Any
    attr: str
    span: str
    opaque: bool = False
    before: Optional[Callable[[tuple, dict], Any]] = None
    after: Optional[Callable[[Tracer, tuple, dict, Any, Any], Any]] = None


def _wrapper(tracer: Tracer, fn: Callable, probe: Probe) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        captured = probe.before(args, kwargs) if probe.before is not None else None
        result = tracer.call(probe.span, fn, args, kwargs, probe.opaque)
        if probe.after is not None:
            result = probe.after(tracer, args, kwargs, result, captured)
        return result

    return traced


def _targets(probe: Probe) -> List[Any]:
    """Every owner to patch: the probe's owner and, for a module-level
    function, each loaded ``repro`` module that imported it by name."""
    owners = [probe.owner]
    if isinstance(probe.owner, type):
        return owners
    original = getattr(probe.owner, probe.attr)
    for name, module in list(sys.modules.items()):
        if module is probe.owner or not name.startswith("repro"):
            continue
        if getattr(module, probe.attr, None) is original:
            owners.append(module)
    return owners


@contextlib.contextmanager
def installed(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[Tracer]:
    """Wrap every probe's entry point for the block; restore them on exit.

    Attributes a class only inherits are removed again rather than set, so the
    class dictionary ends up exactly as it was.  Static methods stay static.
    """
    saved: List[Tuple[Any, str, bool, Any]] = []
    try:
        for probe in probes:
            for owner in _targets(probe):
                own = probe.attr in vars(owner)
                raw = vars(owner)[probe.attr] if own else getattr(owner, probe.attr)
                saved.append((owner, probe.attr, own, raw))
                if isinstance(raw, staticmethod):
                    replacement: Any = staticmethod(_wrapper(tracer, raw.__func__, probe))
                else:
                    replacement = _wrapper(tracer, raw, probe)
                setattr(owner, probe.attr, replacement)
        yield tracer
    finally:
        for owner, attr, own, raw in reversed(saved):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


# ------------------------------------------------------------------- analysis
def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the durations of its direct children."""
    result = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent is not None:
            result[parent] -= span[2] - span[1]
    return result


def roots(spans: Sequence[Span]) -> List[int]:
    """Per span: the index of its outermost ancestor (itself for a root).

    Parents are appended before their children, so one forward pass suffices.
    """
    result: List[int] = []
    for index, span in enumerate(spans):
        parent = span[3]
        result.append(index if parent is None else result[parent])
    return result
