"""Perf-trajectory and regression tooling over the unified experiment store.

The store (``BENCH_perf.sqlite``, written through
:class:`repro.results.ResultsWriter` by every benchmark merge site) replaces
the hand-copied trajectory table in ``docs/performance.md`` and turns trend
regressions into a CI query.  This tool is the operator surface:

    python -m tools.perf_report trajectory        # print the markdown table
    python -m tools.perf_report write-docs        # refresh it in docs/performance.md
    python -m tools.perf_report check-docs        # CI: docs table == store-emitted
    python -m tools.perf_report check-regression  # CI: latest vs trailing median
    python -m tools.perf_report selfcheck         # CI: prove the gate bites
    python -m tools.perf_report ingest-legacy     # seed the store from the JSON silos
    python -m tools.perf_report verify-migration  # CI: JSON -> rows -> JSON round-trip
    python -m tools.perf_report label --label "PR 9" --lever "..."  # annotate latest runs

``check-regression`` fails (exit 1) when any gated benchmark's latest
full-run value drops below ``tolerance x`` the trailing median of its last
``window`` recorded rows — see :func:`repro.results.check_regression`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.results import (  # noqa: E402
    ResultsStore,
    check_regression,
    export_report,
    golden_digest_items,
    ingest_golden_digests,
    ingest_report,
)

STORE_PATH = REPO_ROOT / "BENCH_perf.sqlite"
JSON_PATH = REPO_ROOT / "BENCH_perf.json"
GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "fixtures" / "golden.json"
PERFORMANCE_MD = REPO_ROOT / "docs" / "performance.md"

TRAJECTORY_BEGIN = "<!-- trajectory:begin (emitted by `python -m tools.perf_report write-docs`; do not edit by hand) -->"
TRAJECTORY_END = "<!-- trajectory:end -->"

#: Benchmarks the regression gate covers, with their headline metric.
#: ``parallel_eval`` and ``scenarios`` (1-core hosts record overhead by
#: design) and ``fleet_service`` (records durability overhead, not
#: speedup) are deliberately not gated; their trends are still recorded
#: and queryable.
GATED_BENCHMARKS: Dict[str, str] = {
    "edge_calibration": "speedup",
    "qat": "speedup",
    "qat_fused": "speedup",
    "conv_kernels": "speedup",
    "fleet_calibration": "speedup",
}

#: Metric shown in the trajectory table per benchmark (default: speedup).
#: Overhead ratios (the durable service, and a historical PR 9 entry whose
#: code has since been removed) are recorded-but-not-gated.
HEADLINE_METRICS: Dict[str, str] = {
    "fleet_service": "durability_overhead",
    "fleet_gateway": "gateway_overhead",
}

#: One-time seed of the pre-store era, transcribed from docs/performance.md
#: and CHANGES.md: (label, benchmark, metric, value, lever).  Timestamps are
#: synthetic ordering keys (the JSON silos never recorded real ones); the
#: values are the numbers each PR actually reported.
LEGACY_TRAJECTORY: List[Tuple[str, str, str, float, str]] = [
    ("PR 1", "edge_calibration", "speedup", 1.9,
     "float32 compute + fused BF inference + incremental quantized-state sync + bincount col2im"),
    ("PR 1", "qat", "speedup", 1.45, "float32 vs float64 QAT compute"),
    ("PR 2", "parallel_eval", "speedup", 0.55,
     "sharded stream evaluation (1-core host: records overhead, not scaling)"),
    ("PR 3", "fleet_calibration", "speedup", 1.12,
     "batched multi-device fleet BF calibration (6 forwards vs 48 on 8 devices)"),
    ("PR 4", "qat_fused", "speedup", 1.57,
     "fused QAT engine: flat arena + segmented quantization + lazy codes"),
    ("PR 5", "conv_kernels", "speedup", 1.51,
     "strided conv kernels: as_strided im2col + fused blocked tap-loop col2im"),
    ("PR 6", "fleet_service", "durability_overhead", 1.152,
     "durable fleet service: crash-safe store + retry/backoff + dedupe (overhead, not speedup)"),
]

PR7_LEVER = (
    "repo-native invariant linter + strict-typing wave (perf-neutral; full re-measurement)"
)


def _legacy_timestamp(index: int) -> str:
    """Synthetic, strictly increasing timestamps for the legacy seed rows."""
    return f"2026-07-{index + 1:02d}T00:00:00+00:00"


# --------------------------------------------------------------------------
# trajectory table
# --------------------------------------------------------------------------


def trajectory_rows(store: ResultsStore) -> List[Tuple[str, str, str, float, str]]:
    """(label, benchmark, metric, value, lever) for every labeled run."""
    rows: List[Tuple[str, str, str, float, str]] = []
    for record in store.runs():
        if not record.label or record.kind not in ("entry", "trajectory"):
            continue
        metrics = store.run_metrics(record.run_id)
        metric = HEADLINE_METRICS.get(record.benchmark, "speedup")
        value = metrics.get(metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        rows.append((record.label, record.benchmark, metric, float(value), record.lever))
    return rows


def trajectory_markdown(store: ResultsStore) -> str:
    """The docs trajectory table, emitted from store rows."""
    lines = [
        "| PR | Entry | Headline | Lever |",
        "|---|---|---|---|",
    ]
    for label, benchmark, metric, value, lever in trajectory_rows(store):
        lines.append(f"| {label} | `{benchmark}` | {value:g}x {metric} | {lever} |")
    return "\n".join(lines)


def _split_docs(text: str) -> Tuple[str, str, str]:
    """Split performance.md into (before, table, after) around the markers."""
    try:
        head, rest = text.split(TRAJECTORY_BEGIN, 1)
        table, tail = rest.split(TRAJECTORY_END, 1)
    except ValueError as error:
        raise SystemExit(
            f"{PERFORMANCE_MD} is missing the trajectory markers "
            f"({TRAJECTORY_BEGIN!r} … {TRAJECTORY_END!r}): {error}"
        ) from error
    return head, table, tail


def cmd_trajectory(store_path: Path) -> int:
    """Print the markdown trajectory table."""
    with ResultsStore(store_path) as store:
        print(trajectory_markdown(store))
    return 0


def cmd_write_docs(store_path: Path) -> int:
    """Rewrite the trajectory block in docs/performance.md from the store."""
    with ResultsStore(store_path) as store:
        table = trajectory_markdown(store)
    text = PERFORMANCE_MD.read_text()
    head, _, tail = _split_docs(text)
    PERFORMANCE_MD.write_text(
        head + TRAJECTORY_BEGIN + "\n" + table + "\n" + TRAJECTORY_END + tail
    )
    print(f"updated trajectory table in {PERFORMANCE_MD}")
    return 0


def cmd_check_docs(store_path: Path) -> int:
    """Fail if the docs trajectory table drifted from the store."""
    with ResultsStore(store_path) as store:
        expected = trajectory_markdown(store)
    _, table, _ = _split_docs(PERFORMANCE_MD.read_text())
    if table.strip() != expected.strip():
        print("docs/performance.md trajectory table is stale; regenerate with:")
        print("  PYTHONPATH=src python -m tools.perf_report write-docs")
        return 1
    print("docs trajectory table matches the store")
    return 0


# --------------------------------------------------------------------------
# regression gate
# --------------------------------------------------------------------------


def cmd_check_regression(
    store_path: Path,
    benchmarks: Optional[Sequence[str]],
    window: int,
    tolerance: float,
) -> int:
    """Run the trend gate over the gated benchmarks; exit 1 on regression."""
    names = list(benchmarks) if benchmarks else list(GATED_BENCHMARKS)
    failed = False
    with ResultsStore(store_path) as store:
        for name in names:
            metric = GATED_BENCHMARKS.get(name, HEADLINE_METRICS.get(name, "speedup"))
            verdict = check_regression(
                store, name, metric, window=window, tolerance=tolerance
            )
            print(verdict.describe())
            failed = failed or not verdict.ok
    if failed:
        print("\nregression gate FAILED — latest full-run value fell below the "
              "trailing median (see rows above)")
        return 1
    print("\nregression gate ok")
    return 0


def cmd_selfcheck() -> int:
    """Prove the gate bites: healthy trajectory passes, slowdown fails."""
    problems: List[str] = []
    with ResultsStore() as store:
        for index, value in enumerate([1.50, 1.62, 1.55, 1.58]):
            store.record_run(
                "healthy", {"speedup": value},
                timestamp=_legacy_timestamp(index), mode="full",
            )
        verdict = check_regression(store, "healthy")
        if not verdict.ok:
            problems.append(f"healthy trajectory flagged: {verdict.describe()}")
        store.record_run(
            "healthy", {"speedup": 0.70},
            timestamp=_legacy_timestamp(9), mode="full",
        )
        verdict = check_regression(store, "healthy")
        if verdict.ok:
            problems.append(f"injected slowdown NOT flagged: {verdict.describe()}")
        verdict = check_regression(store, "unrecorded")
        if not verdict.ok:
            problems.append(f"empty trajectory should pass vacuously: {verdict.describe()}")
        smoke_poison = ResultsStore()
        smoke_poison.record_run(
            "bench", {"speedup": 1.5}, timestamp=_legacy_timestamp(0), mode="full"
        )
        smoke_poison.record_run(
            "bench", {"speedup": 0.1}, timestamp=_legacy_timestamp(1), mode="smoke"
        )
        smoke_poison.record_run(
            "bench", {"speedup": 1.5}, timestamp=_legacy_timestamp(2), mode="full"
        )
        verdict = check_regression(smoke_poison, "bench")
        if not verdict.ok or len(verdict.values) != 2:
            problems.append("smoke rows leaked into the full-mode trend")
        smoke_poison.close()
    if problems:
        print("regression-gate selfcheck FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("regression-gate selfcheck ok: pass on healthy trajectory, fail on "
          "injected slowdown, smoke rows excluded")
    return 0


# --------------------------------------------------------------------------
# migration
# --------------------------------------------------------------------------


def seed_legacy(store: ResultsStore) -> None:
    """Seed the pre-store history + the committed JSON silos (idempotent)."""
    for index, (label, benchmark, metric, value, lever) in enumerate(LEGACY_TRAJECTORY):
        store.record_run(
            benchmark, {metric: value},
            kind="trajectory", host="legacy", git_sha="legacy",
            timestamp=_legacy_timestamp(index), mode="full",
            label=label, lever=lever,
        )
    report = json.loads(JSON_PATH.read_text())
    ingest_report(
        store, report, host="legacy", git_sha="legacy",
        timestamp=_legacy_timestamp(len(LEGACY_TRAJECTORY)),
        label="PR 7", lever=PR7_LEVER,
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    ingest_golden_digests(store, golden, repin=False)


def cmd_ingest_legacy(store_path: Path) -> int:
    """Build/refresh the committed store from the legacy JSON silos."""
    with ResultsStore(store_path) as store:
        seed_legacy(store)
        counts = store.counts()
    print(f"seeded {store_path}: {counts}")
    return 0


def cmd_verify_migration(store_path: Path) -> int:
    """CI check: JSON silos -> rows -> JSON is lossless; pins match golden."""
    problems: List[str] = []
    report = json.loads(JSON_PATH.read_text())
    golden = json.loads(GOLDEN_PATH.read_text())
    with ResultsStore() as fresh:
        ingest_report(fresh, report, timestamp="2026-01-01T00:00:00+00:00")
        exported = export_report(fresh)
        if exported != report:
            problems.append("re-exported BENCH_perf.json differs from the ingested input")
        entries = sum(
            1
            for key, value in report.items()
            if key != "config" and isinstance(value, dict)
        )
        runs = fresh.counts()["runs"]
        expected_runs = entries + 1  # per-entry runs + the report-scalars run
        if runs != expected_runs:
            problems.append(f"expected {expected_runs} runs for {entries} entries, got {runs}")
        pinned = ingest_golden_digests(fresh, golden)
        if fresh.pinned_digests() != pinned:
            problems.append("pinned golden digests do not round-trip")
    if store_path.exists():
        with ResultsStore(store_path) as committed:
            expected_pins = golden_digest_items(golden)
            actual = {
                name: digest
                for name, digest in committed.pinned_digests(kind="golden").items()
            }
            if actual != expected_pins:
                problems.append(
                    "committed store's pinned golden digests drifted from "
                    "tests/golden/fixtures/golden.json — regenerate via "
                    "tests/golden/generate_fixtures.py"
                )
    else:
        problems.append(f"committed store {store_path} is missing (run ingest-legacy)")
    if problems:
        print("migration verification FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("migration verification ok: JSON -> rows -> JSON lossless, "
          f"golden pins consistent ({len(golden_digest_items(golden))} digests)")
    return 0


def cmd_prune(store_path: Path, keep: int) -> int:
    """Prune old unprotected runs, keeping the newest ``keep`` per benchmark."""
    before = store_path.stat().st_size if store_path.exists() else 0
    with ResultsStore(store_path) as store:
        stats = store.prune(keep)
    after = store_path.stat().st_size if store_path.exists() else 0
    print(
        f"pruned {stats.runs_deleted} run(s) (+{stats.digests_deleted} provenance "
        f"digest row(s)); kept {stats.runs_kept}, protected {stats.runs_protected} "
        f"(labeled/pinned); {before} -> {after} bytes on disk"
    )
    return 0


def cmd_label(
    store_path: Path, label: str, lever: str, benchmarks: Optional[Sequence[str]]
) -> int:
    """Stamp a PR label + lever onto the latest full run of each benchmark."""
    if not label:
        raise SystemExit("--label is required")
    names = list(benchmarks) if benchmarks else None
    stamped = 0
    with ResultsStore(store_path) as store:
        targets = names if names is not None else store.benchmarks(kind="entry")
        for name in targets:
            runs = [r for r in store.runs(name, kind="entry") if r.mode != "smoke"]
            if not runs:
                continue
            store.set_annotations(runs[-1].run_id, label=label, lever=lever)
            stamped += 1
    print(f"labeled latest run of {stamped} benchmark(s) as {label!r}")
    return 0


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m tools.perf_report``."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "command", nargs="?", default="trajectory",
        choices=(
            "trajectory", "write-docs", "check-docs", "check-regression",
            "selfcheck", "ingest-legacy", "verify-migration", "label", "prune",
        ),
    )
    parser.add_argument("--store", type=Path, default=STORE_PATH,
                        help=f"experiment store path (default {STORE_PATH})")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="restrict check-regression/label to these entries")
    parser.add_argument("--window", type=int, default=5,
                        help="trailing rows feeding the regression median")
    parser.add_argument("--tolerance", type=float, default=0.9,
                        help="latest must reach tolerance * trailing median")
    parser.add_argument("--label", default="", help="PR label for the label command")
    parser.add_argument("--lever", default="", help="lever text for the label command")
    parser.add_argument("--keep", type=int, default=10,
                        help="runs kept per benchmark by the prune command")
    args = parser.parse_args(argv)

    if args.command == "trajectory":
        return cmd_trajectory(args.store)
    if args.command == "write-docs":
        return cmd_write_docs(args.store)
    if args.command == "check-docs":
        return cmd_check_docs(args.store)
    if args.command == "check-regression":
        return cmd_check_regression(args.store, args.benchmarks, args.window, args.tolerance)
    if args.command == "selfcheck":
        return cmd_selfcheck()
    if args.command == "ingest-legacy":
        return cmd_ingest_legacy(args.store)
    if args.command == "verify-migration":
        return cmd_verify_migration(args.store)
    if args.command == "prune":
        return cmd_prune(args.store, args.keep)
    return cmd_label(args.store, args.label, args.lever, args.benchmarks)


if __name__ == "__main__":
    raise SystemExit(main())
