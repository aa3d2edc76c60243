#!/usr/bin/env python3
"""The benchmark's own checks. Run from the repository root:

    python3 perfbench/selftest.py

1. A smoke-size run of every workload, untraced and traced, emits every
   metric BENCHMARK.json names, with its unit, and passes its checks.
2. A deliberately wrong truth shows up as failed checks and a nonzero exit.
3. Two runs on one seed give identical counts; another seed gives other
   inputs.
4. In a directory holding only BENCHMARK.json and the benchmark, the
   command exits nonzero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = "2"


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = ["python3", os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", SMOKE_SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    return cond


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    counts = {}
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, proc = run(w, 1, trace)
            good = code == 0 and res is not None and res["correct"] and res["failed"] == 0
            ok &= check(good, f"{w} trace={trace}: exit 0, all checks pass")
            if not good:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            metrics = res["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            missing = [n for n, u in want.items()
                       if n not in metrics or metrics[n]["unit"] != u]
            ok &= check(not missing, f"{w} trace={trace}: every {key} metric with its unit {missing}")
            counts[(w, trace)] = metrics

    w = "campaign-durable"
    code, res, _ = run(w, 1, 0, "--wrong-truth")
    ok &= check(code != 0 and res is not None and res["failed"] > 0 and not res["correct"],
                f"{w}: a wrong truth fails checks and exits nonzero")

    w = "ldp-scalar"
    exact = ["tcp.frames_per_client", "estimate.nrmse", "fedsim.reports_per_contact"]
    _, again, _ = run(w, 1, 1)
    _, other, _ = run(w, 2, 1)
    if (w, 1) in counts and again and other:
        first = counts[(w, 1)]
        ok &= check(all(first[n]["value"] == again["metrics"][n]["value"] for n in exact),
                    f"{w}: same seed, identical {exact}")
        ok &= check(first["estimate.nrmse"]["value"] != other["metrics"]["estimate.nrmse"]["value"],
                    f"{w}: another seed, other inputs")
    else:
        ok &= check(False, f"{w}: repeat runs produced results")
    _, again0, _ = run(w, 1, 0)
    if (w, 0) in counts and again0:
        n = "wire_bytes_per_client"
        ok &= check(counts[(w, 0)][n]["value"] == again0["metrics"][n]["value"],
                    f"{w}: same seed, identical {n}")

    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")),
                        "perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    env_target = os.environ.pop("CARGO_TARGET_DIR", None)
    code, res, _ = run("ldp-scalar", 1, 0, cwd=bare)
    if env_target is not None:
        os.environ["CARGO_TARGET_DIR"] = env_target
    shutil.rmtree(bare, ignore_errors=True)
    ok &= check(code != 0 and res is None, "bare checkout: nonzero exit, no result")

    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
