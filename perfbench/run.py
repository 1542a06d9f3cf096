#!/usr/bin/env python3
"""End-to-end benchmark of the ptm system: build, run, report.

One run (what the benchmark harness calls):

    python3 perfbench/run.py --workload ingest|query --seed N \
        --seconds S --trace 0|1

builds perfbench/ (and the ptm libraries from src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and passes its output through.  The last stdout line is the
result JSON.  Two more modes:

    python3 perfbench/run.py --steadiness N --workload W [--seconds S]
        [--sets K] [--seed-base B]
    python3 perfbench/run.py --selftest

--steadiness runs W N times per set on seeds B, B+1, ... and prints, for
every end-to-end metric, the median, the quartiles, the quartile spread
and (max - min) / median; with --sets 2 it also prints how far the second
set's median moved from the first.  --selftest plants a wrong reference
answer and a missing record and fails unless ok_ratio falls.
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
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds the benchmark binary; returns its path."""
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "ptm_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ptm_perfbench")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} timed out")
        return 1, ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def steadiness(binary, args):
    sets = []
    for s in range(args.sets):
        runs = []
        for i in range(args.steadiness):
            seed = args.seed_base + s * args.steadiness + i
            code, out = run_once(binary, args.workload, seed, args.seconds, 0)
            result = result_of(out) if code == 0 else None
            if result is None:
                log(f"perfbench: run on seed {seed} failed (exit {code})")
                return 1
            log(f"set {s + 1} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
            runs.append(result)
        sets.append(runs)

    print(f"workload={args.workload} runs={args.steadiness} sets={args.sets} "
          f"seconds={args.seconds}")
    header = (f"{'metric':<16}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/med':>9}{'range/med':>10}{'drift':>8}")
    print(header)
    for name in sets[0][0]["metrics"]:
        first_median = None
        for s, runs in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            scale = abs(median) if median else 1.0
            drift = ""
            if first_median is None:
                first_median = median
            else:
                drift = f"{(median - first_median) / (abs(first_median) or 1):+.3f}"
            print(f"{name:<16}{s + 1:>4}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{(q3 - q1) / scale:>9.3f}"
                  f"{(max(values) - min(values)) / scale:>10.3f}{drift:>8}")
    return 0


def selftest(binary):
    """Planted faults must pull ok_ratio down and mark the run incorrect."""
    failures = 0
    for workload in ("ingest", "query"):
        code, out = run_once(binary, workload, 7, 1, 0, ["--plant-faults"])
        result = result_of(out) if code == 0 else None
        if result is None:
            log(f"selftest: {workload} run failed (exit {code})")
            failures += 1
            continue
        clean_code, clean_out = run_once(binary, workload, 7, 1, 0)
        clean = result_of(clean_out) if clean_code == 0 else None
        planted_ok = result["metrics"]["ok_ratio"]["value"]
        clean_ok = clean["metrics"]["ok_ratio"]["value"] if clean else None
        fell = (clean_ok is not None and planted_ok < clean_ok and
                not result["correct"] and result["failed"] > clean["failed"])
        print(f"selftest {workload}: ok_ratio clean={clean_ok} "
              f"planted={planted_ok} -> {'ok' if fell else 'FAILED'}")
        failures += 0 if fell else 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["ingest", "query"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    if args.selftest:
        return selftest(binary)
    if args.steadiness:
        return steadiness(binary, args)
    code, out = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
