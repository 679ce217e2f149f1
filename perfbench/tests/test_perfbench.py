"""Tests of the benchmark's own logic: order statistics, span self times,
probe installation and restoration, and failure counting.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from loop import Step, Tally, attempt, run_closed_loop  # noqa: E402
from measure import min_samples_for_tail, samples_beyond  # noqa: E402
from tracing import Probe, Tracer, installed, roots, self_times  # noqa: E402


def ticking_clock(start: float = 0.0, step: float = 1.0):
    counter = itertools.count()
    return lambda: start + step * next(counter)


# ------------------------------------------------------------------ measure
def test_tail_sample_count():
    assert min_samples_for_tail(90) == 100
    assert min_samples_for_tail(99) == 1000
    values = [float(v) for v in range(100)]
    assert samples_beyond(values, 90) == 10
    # Ties at the cut are not beyond it.
    assert samples_beyond([1.0] * 50, 90) == 0
    for size in range(min_samples_for_tail(90), 400, 7):
        assert samples_beyond([float(v) for v in range(size)], 90) >= 10


# ---------------------------------------------------------------- self time
def test_self_time_with_nested_and_sibling_spans():
    tracer = Tracer(clock=ticking_clock())
    with tracer.span("root"):          # t=0 .. t=9
        with tracer.span("a"):         # t=1 .. t=2
            pass
        with tracer.span("b"):         # t=3 .. t=8
            with tracer.span("c"):     # t=4 .. t=5
                pass
            with tracer.span("c"):     # t=6 .. t=7
                pass
    names = [span[0] for span in tracer.spans]
    assert names == ["root", "a", "b", "c", "c"]
    own = dict(zip(range(5), self_times(tracer.spans)))
    assert own == {0: 9 - 1 - 5, 1: 1, 2: 5 - 1 - 1, 3: 1, 4: 1}
    assert sum(own.values()) == 9
    assert roots(tracer.spans) == [0, 0, 0, 0, 0]
    assert [span[3] for span in tracer.spans] == [None, 0, 0, 2, 2]


def test_counts_follow_the_outermost_span_and_skip_opaque_calls():
    tracer = Tracer(clock=ticking_clock())

    def inner():
        tracer.count("inside")

    with tracer.span("step"):
        tracer.count("hits", 2)
        tracer.call("opaque", inner, (), {}, opaque=True)
        tracer.call("plain", inner, (), {})
    tracer.count("loose")
    tracer.count("facts", 3, root="step")
    assert tracer.counts == {("step", "hits"): 2, ("step", "inside"): 1, ("", "loose"): 1, ("step", "facts"): 3}
    assert [span[0] for span in tracer.spans] == ["step", "opaque", "plain"]


# --------------------------------------------------------- probe restoration
class Base:
    def forward(self, x):
        return x + 1

    @staticmethod
    def helper(x):
        return x * 2


class Child(Base):
    pass


def _module_pair():
    owner = types.ModuleType("repro_perfbench_fake_owner")
    owner.function = lambda x: x - 1
    importer = types.ModuleType("repro_perfbench_fake_importer")
    importer.function = owner.function
    sys.modules[owner.__name__] = owner
    sys.modules[importer.__name__] = importer
    return owner, importer


def test_installed_wraps_and_restores_exactly():
    owner, importer = _module_pair()
    before = {cls: dict(vars(cls)) for cls in (Base, Child)}
    original = owner.function
    tracer = Tracer(clock=ticking_clock())
    probes = [
        Probe(Child, "forward", "child.forward"),
        Probe(Base, "helper", "base.helper"),
        Probe(owner, "function", "module.function"),
    ]
    try:
        with installed(tracer, probes):
            assert Child().forward(1) == 2
            assert Base.helper(3) == 6 and Base().helper(3) == 6
            assert importer.function(5) == 4
            assert "forward" in vars(Child)
        assert [span[0] for span in tracer.spans] == [
            "child.forward", "base.helper", "base.helper", "module.function",
        ]
        assert {cls: dict(vars(cls)) for cls in (Base, Child)} == before
        assert owner.function is original and importer.function is original
    finally:
        del sys.modules[owner.__name__], sys.modules[importer.__name__]


def test_installed_restores_after_an_exception():
    before = {cls: dict(vars(cls)) for cls in (Base, Child)}
    tracer = Tracer(clock=ticking_clock())
    with pytest.raises(RuntimeError):
        with installed(tracer, [Probe(Child, "forward", "f"), Probe(Base, "helper", "h")]):
            Child().forward(0)
            raise RuntimeError("boom")
    assert {cls: dict(vars(cls)) for cls in (Base, Child)} == before
    # The span of the interrupted call is closed.
    assert all(span[2] is not None for span in tracer.spans)


def test_program_probes_restore_after_a_traced_run_and_an_exception():
    probes = pytest.importorskip("probes")
    owners = {id(p.owner): p.owner for p in probes.PROBES}.values()

    def snapshot():
        return {id(owner): dict(vars(owner)) for owner in owners}

    before = snapshot()
    from repro.quantization import calibration
    from repro.core import bitflip
    qat = calibration.calibrate_with_backprop
    with installed(Tracer(), probes.PROBES):
        assert bitflip.calibrate_with_backprop is not qat
    assert snapshot() == before and bitflip.calibrate_with_backprop is qat
    with pytest.raises(KeyError):
        with installed(Tracer(), probes.PROBES):
            raise KeyError("inside a traced step")
    assert snapshot() == before and bitflip.calibrate_with_backprop is qat


# ----------------------------------------------------------- failure counting
class FakeClient:
    """Steps succeed except where told to raise or to fail their checks."""

    def __init__(self, raise_at=(), bad_at=(), units=1):
        self.raise_at, self.bad_at, self._units = set(raise_at), set(bad_at), units
        self.steps = []

    def units(self, index):
        return self._units

    def step(self, index, span=None):
        self.steps.append(index)
        if index in self.raise_at:
            raise RuntimeError(f"injected failure at {index}")
        with span("step"):
            pass
        return Step(0.5, 0.25, self._units, 1.0, facts={"bad": float(index in self.bad_at)})

    def check(self, step):
        return ["injected check failure"] if step.facts["bad"] else []


def test_an_injected_failing_adapt_counts_exactly_once():
    tally = Tally()
    client = FakeClient(raise_at={1}, bad_at={2}, units=3)
    results = [attempt(client, index, tally, span=lambda name: Tracer().span(name)) for index in range(4)]
    assert [result is None for result in results] == [False, True, True, False]
    assert tally.attempted == 12
    assert tally.failed == 6
    assert len(tally.problems) == 2 and "injected failure at 1" in tally.problems[0]


def test_closed_loop_counts_failures_once_and_times_only_successes():
    clients = [FakeClient(raise_at={2}), FakeClient(bad_at={0})]
    tally = Tally()
    record = run_closed_loop(clients, seconds=0, first_pass=4, tally=tally, clock=ticking_clock())
    # One pass over both clients: 8 steps, two of them failing.
    assert [s.steps for s in clients] == [[0, 1, 2, 3], [0, 1, 2, 3]]
    assert (tally.attempted, tally.failed) == (8, 2)
    assert len(record.accuracies) == 6
    # The first round is warm-up; the failed step of client 0 is not timed.
    assert len(record.step_s) == 5 and record.units == 5


def test_traced_loop_alternates_whole_passes():
    client = FakeClient()
    tracer = Tracer(clock=ticking_clock())
    record = run_closed_loop([client], seconds=0, first_pass=3, tally=Tally(), tracer=tracer, clock=ticking_clock())
    traced_batches = sorted({span[4] for span in tracer.spans})
    assert traced_batches == [3, 4, 5]
    assert len(record.traced_step_s) == 3 and len(record.step_s) == 2


def test_local_slowdown_uses_the_reference_samples_around_each_step():
    bench = pytest.importorskip("bench")
    from loop import Record

    nominal = bench.REFERENCE_NOMINAL_S
    record = Record(
        reference_s=[nominal, 2 * nominal, nominal, 4 * nominal],
        reference_at=[0.0, 1.0, 2.0, 3.0],
        step_at=[1.0, 2.0, 2.5, 10.0, -5.0],
    )
    assert bench.local_slowdowns(record, window=1.0) == pytest.approx([2.0, 1.0, 2.5, 4.0, 1.0])
