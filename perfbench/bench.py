"""Run one workload, or every workload in its own process, and report.

The last line of a single-workload run is the JSON result: end-to-end
metrics from an untraced run (``--trace 0``) or per-layer metrics from a
traced one (``--trace 1``).  Every run ends with a short float64
verification pass whose per-step accuracies and final codes digest must
equal the values pinned in ``pins.json`` (the bit-identity contract; a
traced run checks that tracing leaves them unchanged).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import runtime

from loop import TAIL, Record, Tally, attempt, run_closed_loop
from measure import MIN_TAIL_SAMPLES, ReferenceKernel, samples_beyond
from probes import PROBES, SETUP, STEP_COUNTS, layer_metrics
from tracing import Tracer, installed
from workloads import WORKLOADS, stream_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
#: Working space inside the checkout: fleet stores and span dumps.
OUT = ROOT / ".perfbench"
#: The verification pass always uses this seed, so its pins fit every run.
PIN_SEED = 0
VERIFY_STEPS = 3
SETUP_MIN_SECONDS = 0.2
DEFAULT_SECONDS = 10

#: Median time of the reference kernel on the host the benchmark was defined
#: on (2-core x86 VM, OpenBLAS, one thread).  Normalized timings read as
#: seconds on that host at its median speed.
REFERENCE_NOMINAL_S = 0.011
#: Seconds of reference samples around a step that set its slowdown.
SLOWDOWN_WINDOW = 1.0

#: Raw measurement -> (unit, name on the stream workloads, name on fleet-round).
RAW = {
    "step_s.p50": ("s", "adapt_s.p50", "round_s.p50"),
    "step_s.p90": ("s", "adapt_s.p90", "round_s.p90"),
    "throughput_per_s": ("1/s", "batches_per_s", "device_rounds_per_s"),
    "setup_s": ("s", "setup_s", "setup_s"),
}
#: JSON name -> (unit, meaning).
END_TO_END = {
    "norm_step_s.p50": ("s", "step_s.p50 at the nominal host speed"),
    "norm_step_s.p90": ("s", "step_s.p90 at the nominal host speed"),
    "norm_throughput_per_s": ("1/s", "throughput_per_s at the nominal host speed"),
    "accuracy": ("fraction", "stream_accuracy"),
    "setup_s": ("s", "setup_s at the nominal host speed"),
    "peak_rss_mb": ("MB", "peak_rss_mb"),
}


def layer_unit(name: str) -> str:
    if name in STEP_COUNTS:
        return "count"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "s"


# ------------------------------------------------------------ verification
def verification_pass(workload: Any, workdir: Path) -> Tuple[List[Optional[float]], str, Tally]:
    """Float64 run of ``VERIFY_STEPS`` steps on one stream with ``PIN_SEED``."""
    tally = Tally()
    with runtime.use_dtype(np.float64):
        scenario = workload.inputs(PIN_SEED)
        prepared = workload.setup(scenario, PIN_SEED)
        [client] = workload.clients([prepared], [scenario], workdir)
        try:
            accuracies = []
            for index in range(VERIFY_STEPS):
                step = attempt(client, index, tally)
                accuracies.append(None if step is None else step.accuracy)
            digest = client.digest()
        finally:
            client.close()
    return accuracies, digest, tally


def load_pins() -> Dict[str, Any]:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def verify(workload: Any, workdir: Path, tally: Tally, traced: bool) -> str:
    """Run the verification pass into ``tally``; returns its codes digest."""
    guard = installed(Tracer(), PROBES) if traced else contextlib.nullcontext()
    with guard:
        accuracies, digest, checks = verification_pass(workload, workdir)
    tally.attempted += checks.attempted
    tally.failed += checks.failed
    tally.problems.extend(f"verification {problem}" for problem in checks.problems)
    pin = load_pins().get(workload.name)
    if pin is None:
        mismatch = "no pinned values (run with --regenerate-pins)"
    elif pin["codes_digest"] != digest or pin["accuracies"] != accuracies:
        mismatch = (
            f"float64 result {digest[:12]} {accuracies} differs from the pinned "
            f"{pin['codes_digest'][:12]} {pin['accuracies']}"
        )
    else:
        return digest
    tally.failed += 1
    tally.problems.append(f"verification: {mismatch}")
    return digest


def regenerate_pins(names: List[str]) -> int:
    pins = load_pins()
    workdir = OUT / "work" / f"pins-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            accuracies, digest, tally = verification_pass(WORKLOADS[name], workdir)
            if tally.failed:
                print(f"{name}: verification pass failed: {tally.problems}", file=sys.stderr)
                return 1
            pins[name] = {"seed": PIN_SEED, "steps": VERIFY_STEPS, "codes_digest": digest, "accuracies": accuracies}
            print(f"{name}: pinned {digest[:12]} {accuracies}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


# ------------------------------------------------------------------- a run
def _p(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def set_up(
    workload: Any, scenarios: List[Any], seeds: List[int], kernel: ReferenceKernel, tracer: Optional[Tracer]
) -> Tuple[List[Any], List[float], List[float]]:
    """One set-up per stream; returns the prepared devices, the set-up times
    and the reference-kernel times sampled between them.

    Short set-ups repeat (with identical results) until they fill
    ``SETUP_MIN_SECONDS``, so their median rests on enough samples.
    """
    prepared = []
    setup_s: List[float] = []
    reference_s = [kernel()]
    for scenario, stream in zip(scenarios, seeds):
        spent = 0.0
        while spent < SETUP_MIN_SECONDS:
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(installed(tracer, PROBES))
                    stack.enter_context(tracer.span(SETUP))
                start = time.perf_counter()
                result = workload.setup(scenario, stream)
                setup_s.append(time.perf_counter() - start)
            spent += setup_s[-1]
            reference_s.extend(kernel() for _ in range(3))
        prepared.append(result)
    return prepared, setup_s, reference_s


def local_slowdowns(record: Record, window: float = SLOWDOWN_WINDOW) -> List[float]:
    """Per timed step: the median reference time within ``window`` seconds
    around it, over the nominal time.

    Interference on a shared host comes in bursts of a second or so; a
    run-wide median would leave the steps inside a burst in the tail.
    """
    factors = []
    for at in record.step_at:
        low = bisect.bisect_left(record.reference_at, at - window / 2)
        high = bisect.bisect_right(record.reference_at, at + window / 2)
        near = record.reference_s[low:high] or [
            record.reference_s[min(low, len(record.reference_s) - 1)]
        ]
        factors.append(statistics.median(near) / REFERENCE_NOMINAL_S)
    return factors


def execute(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Tally, Dict[str, float], Dict[str, Any]]:
    """One run: a set-up per stream, the closed loop, then verification."""
    workload = WORKLOADS[name]
    tally = Tally()
    tracer = Tracer() if trace else None
    seeds = [stream_seed(seed, index) for index in range(workload.streams)]
    scenarios = [workload.inputs(stream) for stream in seeds]
    kernel = ReferenceKernel()
    prepared, setup_s, setup_reference = set_up(workload, scenarios, seeds, kernel, tracer)
    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        clients = workload.clients(prepared, scenarios, workdir)
        try:
            record = run_closed_loop(
                clients, seconds, workload.first_pass, tally, tracer, PROBES, reference=kernel
            )
        finally:
            for client in clients:
                client.close()
        # Before verification, whose float64 set-up would count otherwise.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digest = verify(workload, workdir, tally, traced=trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not record.step_s:
        tally.problems.append("no step succeeded")
    info = provenance(name, seeds, seed, seconds, trace, record, setup_s, digest)
    busy = sum(record.step_s) + sum(record.eval_s)
    raw = {
        "step_s.p50": _p(record.step_s, 50),
        "step_s.p90": _p(record.step_s, TAIL),
        "throughput_per_s": record.units / busy if busy else 0.0,
    }
    raw["setup_s"] = statistics.median(setup_s)
    info["raw"] = raw
    # Host speed relative to nominal (above 1: the host ran slower): around
    # each timed step for the loop, over the whole set-up phase for setup_s.
    slowdowns = local_slowdowns(record)
    normalized = [value / factor for value, factor in zip(record.step_s, slowdowns)]
    normalized_busy = sum(
        (step + evaluation) / factor
        for step, evaluation, factor in zip(record.step_s, record.eval_s, slowdowns)
    )
    setup_slowdown = statistics.median(setup_reference) / REFERENCE_NOMINAL_S
    info["reference_s"] = statistics.median(record.reference_s)
    info["reference_samples"] = len(record.reference_s)
    info["setup_reference_s"] = statistics.median(setup_reference)
    if tracer is not None:
        metrics = layer_metrics(tracer, record.step_s, record.traced_step_s)
        spans = OUT / "spans" / f"{name}-seed{seed}.json"
        tracer.write(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
        info["spans"] = len(tracer.spans)
    else:
        metrics = {
            "norm_step_s.p50": _p(normalized, 50),
            "norm_step_s.p90": _p(normalized, TAIL),
            "norm_throughput_per_s": record.units / normalized_busy if normalized_busy else 0.0,
            "accuracy": statistics.fmean(record.accuracies) if record.accuracies else 0.0,
            "setup_s": raw["setup_s"] / setup_slowdown,
            "peak_rss_mb": peak_rss_mb,
        }
    return tally, metrics, info


def provenance(name: str, seeds: List[int], seed: int, seconds: float, trace: bool, record: Record, setup_s: List[float], digest: str) -> Dict[str, Any]:
    steps = record.step_s
    return {
        "workload": name,
        "seed": seed,
        "stream_seeds": seeds,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "dtype": runtime.get_dtype().name,
        "timed_steps": len(steps),
        "traced_steps": len(record.traced_step_s),
        "beyond_p90": samples_beyond(steps, TAIL) if steps else 0,
        "units": record.units,
        "accuracy_steps": len(record.accuracies),
        "setups": len(setup_s),
        "verify_digest": digest,
    }


def report(name: str, trace: bool, tally: Tally, metrics: Dict[str, float], info: Dict[str, Any]) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    print(f"provenance {json.dumps(info, sort_keys=True)}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    fleet = name == "fleet-round"
    n = info["timed_steps"]
    if trace:
        for metric, value in metrics.items():
            print(f"  {metric:32s} {value:14.6g} {layer_unit(metric)}")
    else:
        counts = {metric: f"n={n}" for metric in RAW}
        counts["step_s.p90"] += f", {info['beyond_p90']} beyond"
        counts["setup_s"] = f"median of {info['setups']}"
        for metric, (unit, stream_label, fleet_label) in RAW.items():
            label = fleet_label if fleet else stream_label
            print(f"  {label:22s} {info['raw'][metric]:14.6g} {unit:9s} (raw; {counts[metric]})")
        for metric, (unit, meaning) in END_TO_END.items():
            print(f"  {metric:22s} {metrics[metric]:14.6g} {unit:9s} ({meaning})")
        print(
            f"  accuracy averages {info['accuracy_steps']} steps; reference kernel "
            f"{info['reference_s']:.6g} s in the loop (n={info['reference_samples']}), "
            f"{info['setup_reference_s']:.6g} s in set-up, nominal {REFERENCE_NOMINAL_S} s"
        )
        if info["beyond_p90"] < MIN_TAIL_SAMPLES:
            print(f"  note: fewer than {MIN_TAIL_SAMPLES} samples beyond p90")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'error_rate':22s} {rate:14.6g} fraction  ({tally.failed}/{tally.attempted})")
    units = {metric: spec[0] for metric, spec in END_TO_END.items()}
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": value, "unit": layer_unit(metric) if trace else units[metric]}
            for metric, value in metrics.items()
        },
    }
    print(json.dumps(result))


# ----------------------------------------------------------------- --all
def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process, untraced then traced."""
    results: Dict[Tuple[str, int], Dict[str, Any]] = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            print(f"== {name} trace={trace}", flush=True)
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            results[(name, trace)] = result
            if not result["correct"]:
                status = 1
    edge, bp = results.get(("edge-dsa", 0)), results.get(("bp-dsa", 0))
    if edge and bp:
        key = "norm_step_s.p50"
        ratio = edge["metrics"][key]["value"] / bp["metrics"][key]["value"]
        print(
            f"Table 9 read-off: edge-dsa {key} / bp-dsa {key} = {ratio:.3f} "
            "(base: bp-dsa, DER++ at 4 bits on the same streams; informational, not gated)"
        )
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--regenerate-pins", action="store_true",
                        help="recompute the pinned float64 verification values")
    args = parser.parse_args(argv)
    if args.regenerate_pins:
        return regenerate_pins([args.workload] if args.workload else list(WORKLOADS))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload, --all or --regenerate-pins is required")
    tally, metrics, info = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, bool(args.trace), tally, metrics, info)
    return 0 if tally.failed == 0 and not tally.problems else 1
