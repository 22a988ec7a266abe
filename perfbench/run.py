#!/usr/bin/env python3
"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload <letters|baseline_words|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the PolarDraw libraries and the
perfbench binary from source (CMake, into $CARGO_TARGET_DIR/perfbench or
.bench_build/perfbench), runs the metric self-test, times the workload's
set-up in SETUP_SAMPLES fresh processes, then runs the workload once. The
last stdout line is the result JSON: {correct, attempted, failed, metrics},
with the end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1).
setup_s is the median of the fresh-process set-up times and the measured
run's own. Traced runs write a Perfetto trace under .bench_out/.

Exit status: 0 when every output check passed; 1 when a check failed (the
result is still printed, with "correct": false) or the build or self-test
failed (nothing is printed).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", "4"]):
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850).returncode:
            return None
    return build_dir


def declared():
    """Metric names BENCHMARK.json declares, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {
        "workloads": {w["name"] for w in spec["workloads"]},
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = declared()
    if spec is not None and args.workload not in spec["workloads"]:
        log(f"unknown workload {args.workload!r}")
        return 2
    build_dir = build()
    if build_dir is None:
        log("build failed")
        return 1
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                      stdout=sys.stderr, timeout=60).returncode:
        log("metric self-test failed")
        return 1

    base = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
            "--seed", str(args.seed)]
    setup = []
    for _ in range(SETUP_SAMPLES if not args.trace else 0):
        out = subprocess.run(base + ["--seconds", "1", "--trace", "0", "--setup-only"],
                             stdout=subprocess.PIPE, text=True, timeout=60)
        if out.returncode:
            log("set-up run failed")
            return 1
        setup.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])

    run = subprocess.run(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", os.path.join(ROOT, ".bench_out")],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        log(f"perfbench exited with {run.returncode}")
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not args.trace:
        setup.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup)
        log("set-up samples (s): " + ", ".join(f"{v:.6f}" for v in setup))
    if spec is not None and set(metrics) != spec[bool(args.trace)]:
        log("reported metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ spec[bool(args.trace)])}")
        return 1
    print(json.dumps(result), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
