#!/usr/bin/env python3
"""Smoke test for the paper-experiment driver.

Usage: bench_smoke.py ASYNCDR_BENCH --root REPO_ROOT

Runs `asyncdr_bench decision_tree lowerbound recovery` into a temporary
ASYNCDR_BENCH_DIR, diffs each fresh BENCH_<id>.json against the committed
baseline with compare_bench.py at CI's tolerance, and checks that an unknown
experiment id exits non-zero and lists the valid ids.

Exit status: 0 = pass, 1 = failure.
"""

import argparse
import os
import subprocess
import sys
import tempfile

IDS = ("decision_tree", "lowerbound", "recovery")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("bench")
    ap.add_argument("--root", required=True)
    args = ap.parse_args()
    compare = os.path.join(args.root, "tools", "compare_bench.py")

    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, ASYNCDR_BENCH_DIR=out)
        run = subprocess.run([args.bench, *IDS], env=env,
                             stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            print(f"FAIL: asyncdr_bench {' '.join(IDS)} exited "
                  f"{run.returncode}")
            return 1
        for exp in IDS:
            cmp = subprocess.run(
                [sys.executable, compare,
                 os.path.join(args.root, f"BENCH_{exp}.json"),
                 os.path.join(out, f"BENCH_{exp}.json"),
                 "--tolerance", "0.25"])
            if cmp.returncode != 0:
                print(f"FAIL: BENCH_{exp}.json regressed against its baseline")
                return 1

        bad = subprocess.run([args.bench, "no_such_experiment"], env=env,
                             capture_output=True, text=True)
        if bad.returncode == 0:
            print("FAIL: an unknown experiment id exited 0")
            return 1
        missing = [i for i in IDS + ("table1", "scale")
                   if i not in bad.stderr.split()]
        if missing:
            print(f"FAIL: unknown-id message does not list {missing}:\n"
                  f"{bad.stderr}")
            return 1
    print("ok: asyncdr_bench smoke")
    return 0


if __name__ == "__main__":
    sys.exit(main())
