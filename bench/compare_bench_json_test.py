#!/usr/bin/env python3
"""Self-test of compare_bench_json.py on two fixture snapshots.

The fixtures (tests/data/compare_bench/{old,new}) hold one record of each
kind: times that grow and fall, a higher-is-better ratio that drops (its
direction declared only in the newer snapshot, as when a current run is
compared with a history snapshot that predates the field), a
higher-is-better share that rises, and a lower-is-better share that grows.
The last cases check that a missing, empty or disjoint snapshot exits 2
and that bare names resolve under --history.

Usage:
    compare_bench_json_test.py FIXTURE_DIR
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "compare_bench_json.py"
FIXTURES = None  # set from argv in main()


def run(*args, cwd=None):
    """Runs the script on `args`; returns the CompletedProcess."""
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True,
        text=True,
        check=False,
        cwd=cwd,
    )


def compare(old: str, new: str):
    """Runs the comparison; returns (exit code, REGRESSION lines, stdout)."""
    result = run(FIXTURES / old, FIXTURES / new)
    flagged = [line for line in result.stdout.splitlines() if "REGRESSION" in line]
    return result.returncode, flagged, result.stdout


def flags(lines, method: str) -> bool:
    return any(f"fixture/{method} " in line for line in lines)


class CompareBenchJsonTest(unittest.TestCase):
    def test_drop_in_higher_is_better_record_is_a_regression(self):
        code, flagged, out = compare("old", "new")
        self.assertEqual(code, 1, out)
        self.assertTrue(flags(flagged, "scaling_ratio_x100"), out)

    def test_rise_in_higher_is_better_record_is_an_improvement(self):
        _, flagged, out = compare("old", "new")
        self.assertFalse(flags(flagged, "partitioned_router_share_x100"), out)

    def test_times_and_lower_is_better_figures_regress_by_growing(self):
        _, flagged, out = compare("old", "new")
        self.assertTrue(flags(flagged, "warm_4shard"), out)
        self.assertTrue(flags(flagged, "max_shard_share_x100"), out)
        self.assertFalse(flags(flagged, "warm_1shard"), out)
        self.assertIn("3 regression(s), 2 improvement(s)", out)

    def test_direction_declared_by_the_older_snapshot_holds(self):
        # Reversed: the ratio now rises, and only the older side declares
        # it higher-is-better.
        _, flagged, out = compare("new", "old")
        self.assertFalse(flags(flagged, "scaling_ratio_x100"), out)
        self.assertTrue(flags(flagged, "partitioned_router_share_x100"), out)
        self.assertTrue(flags(flagged, "warm_1shard"), out)

    def test_bare_names_resolve_under_history(self):
        # Run from a directory holding neither name.
        with tempfile.TemporaryDirectory() as cwd:
            result = run("--history", FIXTURES, "old", "new", cwd=cwd)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("3 regression(s), 2 improvement(s)", result.stdout)

    def test_missing_snapshot_exits_2_naming_it(self):
        with tempfile.TemporaryDirectory() as scratch:
            missing = Path(scratch) / "nope_a"
            result = run(missing, Path(scratch) / "nope_b")
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn(str(missing), result.stderr)

    def test_directory_without_bench_files_exits_2(self):
        with tempfile.TemporaryDirectory() as empty:
            result = run(FIXTURES / "old", empty)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn(empty, result.stderr)

    def test_pair_sharing_no_record_exits_2(self):
        with tempfile.TemporaryDirectory() as other:
            record = {"method": "unrelated", "n": 1, "threads": 1,
                      "median_ns": 1000.0}
            (Path(other) / "BENCH_fixture.json").write_text(
                json.dumps({"bench": "fixture", "records": [record]}))
            result = run(FIXTURES / "old", other)
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)
        self.assertIn("share no record", result.stderr)


def main() -> int:
    global FIXTURES
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    FIXTURES = Path(sys.argv[1]).resolve()
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(
        CompareBenchJsonTest)
    return 0 if unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
