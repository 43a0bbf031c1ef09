#!/usr/bin/env python3
"""Diff two bench history snapshots and flag median regressions.

Every timing harness writes machine-readable ``BENCH_<name>.json`` files
(``netbone::bench::JsonBenchLog``); ``snapshot_bench.sh`` collects one run's
files into a timestamped directory under ``bench/history/``. This script
compares the two most recent snapshots (or two explicitly named ones) record
by record — a record is identified by ``(bench, method, n, threads)`` — and
flags any whose ``median_ns`` grew by more than the threshold (default 10%).
Records that carry the optional ``p95_ns`` field (exported latency
percentiles — the observability bench and MetricsSnapshot::RenderJson write
it) are additionally gated on p95 growth with the same threshold, so tail
latency regressions are caught even when the median holds.

A record may say which way it improves with ``"better": "higher"`` or
``"lower"`` (``JsonBenchLog::RecordFigure`` writes it for ratios and
shares). A higher-is-better record is flagged when its median *drops* by
more than the threshold. Records without the field are times, lower is
better. When only one snapshot declares a direction (an older snapshot
predates the field), that declaration holds for both.

Usage:
    compare_bench_json.py [--history DIR] [--threshold PCT] [OLD NEW]

OLD and NEW are snapshot directories; a bare name that is not an existing
path names a snapshot under --history.

Exits 1 when at least one regression was flagged, so CI can gate on it.
Records present in only one snapshot are listed but never flagged (new
benches appear, old ones retire). Exits 2, naming the path, when a
snapshot is not a directory holding a BENCH_*.json file, and when the two
snapshots share no record: a mistyped name must not pass as "no
regressions".
"""

import argparse
import json
import sys
from pathlib import Path


def load_snapshot(directory: Path):
    """Maps (bench, method, n, threads) -> {metric: ns} for one snapshot.

    The metric dict holds ``median_ns``, ``p95_ns`` when the record
    exported one, and ``better`` when it declared a direction. Records
    missing identity fields or a median are skipped with a warning
    rather than erroring: a snapshot directory may hold
    files written by a newer harness whose records this baseline never
    had, and one malformed entry must not block the whole comparison.
    """
    records = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        with open(path) as handle:
            data = json.load(handle)
        bench = data.get("bench", path.stem)
        for record in data.get("records", []):
            method = record.get("method")
            n = record.get("n")
            threads = record.get("threads")
            median = record.get("median_ns")
            if method is None or n is None or threads is None:
                print(
                    f"  warning: skipping malformed record in {path.name}: "
                    f"{record}",
                    file=sys.stderr,
                )
                continue
            if median is None:
                continue
            metrics = {"median_ns": float(median)}
            p95 = record.get("p95_ns")
            if p95 is not None:
                metrics["p95_ns"] = float(p95)
            better = record.get("better")
            if better is not None:
                if better not in ("higher", "lower"):
                    print(
                        f"  warning: ignoring unknown direction {better!r} "
                        f"in {path.name}: {record}",
                        file=sys.stderr,
                    )
                else:
                    metrics["better"] = better
            records[(bench, method, n, threads)] = metrics
    return records


def resolve_snapshot(arg: Path, history: Path) -> Path:
    """`arg` itself when it exists, else a bare name under `history`."""
    if arg.exists() or len(arg.parts) != 1:
        return arg
    return history / arg


def check_snapshot(directory: Path):
    """Exits 2 unless `directory` holds at least one BENCH_*.json."""
    if not directory.is_dir() or not any(directory.glob("BENCH_*.json")):
        print(f"error: {directory} is not a snapshot directory "
              f"(no BENCH_*.json)", file=sys.stderr)
        sys.exit(2)


def pick_latest_two(history: Path):
    """The two most recent snapshot directories.

    Snapshots are ordered by name: labels must sort chronologically, which
    snapshot_bench.sh guarantees by prefixing every label (default and
    custom alike) with a YYYYmmdd-HHMMSS timestamp.
    """
    snapshots = sorted(
        d for d in history.iterdir() if d.is_dir() and any(d.glob("BENCH_*.json"))
    )
    if len(snapshots) < 2:
        sys.exit(
            f"need at least two snapshots under {history} "
            f"(found {len(snapshots)}); run bench/snapshot_bench.sh first"
        )
    return snapshots[-2], snapshots[-1]


def format_value(value: float, better: str) -> str:
    """Times as adaptive ns units; declared figures as plain numbers."""
    return format_ns(value) if better is None else f"{value:.1f}"


def format_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{ns:.0f}ns"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history",
        type=Path,
        default=Path(__file__).resolve().parent / "history",
        help="snapshot root (default: bench/history/)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="flag growth above this percentage (default: 10)",
    )
    parser.add_argument("snapshots", nargs="*", type=Path)
    args = parser.parse_args()

    if len(args.snapshots) == 2:
        old_dir, new_dir = (resolve_snapshot(arg, args.history)
                            for arg in args.snapshots)
    elif not args.snapshots:
        old_dir, new_dir = pick_latest_two(args.history)
    else:
        parser.error("pass either zero or two snapshot directories")

    for directory in (old_dir, new_dir):
        check_snapshot(directory)
    old = load_snapshot(old_dir)
    new = load_snapshot(new_dir)
    print(f"comparing {old_dir.name} -> {new_dir.name} "
          f"(threshold {args.threshold:.0f}%)")

    regressions = []
    improvements = 0
    for key in sorted(old.keys() & new.keys()):
        # The newer declaration, else the older one, else a time.
        declared = new[key].get("better") or old[key].get("better")
        better = declared or "lower"
        # median always; p95 only when both snapshots exported it (a
        # record gaining or losing the field is never flagged for it).
        for metric in ("median_ns", "p95_ns"):
            old_value = old[key].get(metric)
            new_value = new[key].get(metric)
            if old_value is None or new_value is None or old_value <= 0:
                continue
            change = 100.0 * (new_value - old_value) / old_value
            # How much worse, in percent: growth of a lower-is-better
            # record, a drop of a higher-is-better one.
            worse = change if better == "lower" else -change
            if worse > args.threshold:
                regressions.append(
                    (key, metric, old_value, new_value, change, declared))
            elif worse < -args.threshold and metric == "median_ns":
                improvements += 1

    for key, metric, old_value, new_value, change, declared in regressions:
        bench, method, n, threads = key
        print(
            f"  REGRESSION {bench}/{method} (n={n}, threads={threads}) "
            f"{metric}: {format_value(old_value, declared)} -> "
            f"{format_value(new_value, declared)} ({change:+.1f}%"
            f"{', higher is better' if declared == 'higher' else ''})"
        )

    only_old = sorted(old.keys() - new.keys())
    only_new = sorted(new.keys() - old.keys())
    if only_old:
        print(f"  {len(only_old)} record(s) retired since {old_dir.name}")
    if only_new:
        print(f"  {len(only_new)} new record(s) in {new_dir.name}")

    shared = len(old.keys() & new.keys())
    print(
        f"{shared} shared records: {len(regressions)} regression(s), "
        f"{improvements} improvement(s) beyond {args.threshold:.0f}%"
    )
    if shared == 0:
        print(f"error: {old_dir} and {new_dir} share no record",
              file=sys.stderr)
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
