"""The closed load loop: one process, one step in flight.

A client (one deployed device or one fleet service) absorbs its next batch
only after its previous step has returned.  With several clients the loop
visits them round-robin, still one step at a time.  A step that raises or
fails an output check counts its units once as failed and is left out of
the timings.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Optional, Protocol, Sequence

from measure import MIN_TAIL_SAMPLES, min_samples_for_tail
from tracing import Probe, Tracer, installed

#: Tail percentile reported next to the median.
TAIL = 90.0
#: A run that has not left MIN_TAIL_SAMPLES beyond the tail by ``seconds``
#: keeps going, but never past this multiple of ``seconds``.
MAX_OVERRUN = 4.0
#: Seconds between two samples of the reference kernel.
REFERENCE_INTERVAL = 0.25

SpanFactory = Callable[[str], ContextManager[Any]]


def no_span(name: str) -> ContextManager[Any]:
    """The untraced stand-in for :meth:`Tracer.span`."""
    return contextlib.nullcontext()


@dataclass
class Step:
    """What one step reports back to the loop."""

    seconds: float
    eval_seconds: float
    units: int
    accuracy: float
    facts: Dict[str, float] = field(default_factory=dict)


class Client(Protocol):
    def units(self, index: int) -> int: ...

    def step(self, index: int, span: SpanFactory = no_span) -> Step: ...

    def check(self, step: Step) -> List[str]: ...


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


@dataclass
class Record:
    """Timings and accuracies of one closed-loop run."""

    step_s: List[float] = field(default_factory=list)
    eval_s: List[float] = field(default_factory=list)
    units: int = 0
    accuracies: List[float] = field(default_factory=list)
    traced_step_s: List[float] = field(default_factory=list)
    reference_s: List[float] = field(default_factory=list)
    #: Loop clock readings: when each reference sample and each timed
    #: (untraced) step was taken.
    reference_at: List[float] = field(default_factory=list)
    step_at: List[float] = field(default_factory=list)


def attempt(
    client: Client,
    index: int,
    tally: Tally,
    span: SpanFactory = no_span,
    guard: Optional[ContextManager[Any]] = None,
) -> Optional[Step]:
    """Run one step and its output checks; count a failure exactly once."""
    units = client.units(index)
    tally.attempted += units
    try:
        with guard if guard is not None else contextlib.nullcontext():
            step = client.step(index, span)
        problems = client.check(step)
    except Exception as error:  # a failing step is counted and the loop goes on
        traceback.print_exc(file=sys.stderr)
        tally.failed += units
        tally.problems.append(f"step {index}: {type(error).__name__}: {error}")
        return None
    if problems:
        tally.failed += units
        tally.problems.extend(f"step {index}: {problem}" for problem in problems)
        return None
    return step


def run_closed_loop(
    clients: Sequence[Client],
    seconds: float,
    first_pass: int,
    tally: Tally,
    tracer: Optional[Tracer] = None,
    probes: Sequence[Probe] = (),
    clock: Callable[[], float] = time.perf_counter,
    reference: Optional[Callable[[], float]] = None,
) -> Record:
    """Step the clients round-robin until ``seconds`` have passed.

    The first round (one step per client) warms caches and is not timed.
    Accuracies are kept for the first ``first_pass`` steps of every client,
    a fixed set, so their mean depends on the seed only.  The loop runs at
    least until every client has finished its first pass and, up to
    ``MAX_OVERRUN`` times ``seconds``, until the tail percentile has
    ``MIN_TAIL_SAMPLES`` beyond it.  With a ``tracer``, the loop alternates
    untraced and traced blocks of one pass each (every client's first
    ``first_pass`` steps), so both halves see the same batches and round
    shapes; the probes are installed for one traced step at a time.
    ``reference`` (the host-speed kernel) is sampled between steps every
    ``REFERENCE_INTERVAL`` seconds.
    """
    count = len(clients)
    block = count * first_pass
    wanted = min_samples_for_tail(TAIL, MIN_TAIL_SAMPLES)
    record = Record()
    start = clock()
    sampled = -math.inf
    index = 0
    while True:
        if reference is not None and clock() - sampled >= REFERENCE_INTERVAL:
            record.reference_s.append(reference())
            sampled = clock()
            record.reference_at.append(sampled)
        client, local = clients[index % count], index // count
        warm = index >= count
        traced = tracer is not None and (index // block) % 2 == 1
        guard = None
        span = no_span
        if traced:
            tracer.batch = index
            guard = installed(tracer, probes)
            span = tracer.span
        step = attempt(client, local, tally, span, guard)
        if step is not None:
            if local < first_pass:
                record.accuracies.append(step.accuracy)
            if traced:
                record.traced_step_s.append(step.seconds)
                for key, value in step.facts.items():
                    tracer.count(key, value, root="step")
            elif warm:
                record.step_s.append(step.seconds)
                record.step_at.append(clock())
                record.eval_s.append(step.eval_seconds)
                record.units += step.units
        index += 1
        elapsed = clock() - start
        timed = len(record.step_s) + len(record.traced_step_s)
        passes = 1 if tracer is None else 2
        if index >= passes * block and elapsed >= seconds and (
            timed >= wanted or elapsed >= MAX_OVERRUN * seconds
        ):
            return record
