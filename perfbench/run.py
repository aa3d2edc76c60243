#!/usr/bin/env python3
"""Build fednumd and the perfbench driver from source, then run the driver.

Run from the repository root:

    python3 perfbench/run.py --workload ldp-scalar --seed 1 --seconds 30 --trace 0

`--workload` takes ldp-scalar, secagg-planes, campaign-durable or all.
Builds go to $CARGO_TARGET_DIR (default .bench_build); the driver's
scratch files (campaign state dirs, trace files) go under
$CARGO_TARGET_DIR/perfbench-work. The last line of standard output is the
run's JSON result; the exit code is nonzero if a build or any check failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    builds = [
        # The system under test, built from the repository's own workspace.
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "fednum-transport", "--bin", "fednumd"],
        # The driver, a workspace of its own.
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "-q"] + args
        # Cargo's output goes to stderr, keeping stdout for the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    driver = os.path.join(release, "perfbench")
    os.execv(driver, [driver,
                      "--fednumd", os.path.join(release, "fednumd"),
                      "--work-dir", os.path.join(target, "perfbench-work")]
             + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
