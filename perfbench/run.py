#!/usr/bin/env python3
"""End-to-end benchmark of retask: builds perfbench from this checkout's
sources and runs one workload.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The last line of standard output is the JSON result; the exit
      code is 0 only when every op passed its checks.

  python3 perfbench/run.py --steadiness RUNS --workload NAME[,NAME...]
                           [--sets 2] [--seconds S] [--first-seed N]
      Steadiness mode: repeats each workload RUNS times per set, one seed per
      run, and prints every end-to-end metric's median, quartiles and spread
      (interquartile range over median), flagging a spread wider than the
      metric's bound in BENCHMARK.json, and, with two sets, a second median
      worse than the first by more than the bound.

  python3 perfbench/run.py --selftest
      Builds and runs the benchmark's own unit tests.

--seconds defaults to run_seconds in BENCHMARK.json. The build lands in
.bench_build/perfbench under the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
# The solver knobs a user leaves at their defaults; a run measures those.
KNOBS = ("RETASK_BATCH", "RETASK_FUSED_SWEEP", "RETASK_SIMD", "RETASK_WAVEFRONT")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "src" / "retask" / "retask.hpp").is_file():
        fail("no retask sources under %s; run from a checkout of the repository" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return BUILD / target


def bench_env():
    env = dict(os.environ)
    for knob in KNOBS:
        env.pop(knob, None)
    env["RETASK_JOBS"] = "1"
    return env


def run_once(binary, workload, seed, seconds, trace, echo):
    command = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=bench_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_bounds():
    spec = load_spec()
    return {m["name"]: (m["bound"], m["better"], m["unit"]) for m in spec["end_to_end"]}


def spread_of(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(binary, workloads, runs, sets, seconds, first_seed):
    bounds = load_bounds()
    flagged = 0
    for workload in workloads:
        medians = []
        for s in range(sets):
            values = {name: [] for name in bounds}
            for r in range(runs):
                seed = first_seed + r
                code, result = run_once(binary, workload, seed, seconds, 0, echo=False)
                if code != 0 or result is None or not result.get("correct"):
                    print("%s set %d seed %d: run failed (exit %d)" % (workload, s + 1, seed, code))
                    flagged += 1
                    continue
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            print("%s, set %d: %d runs, seeds %d..%d, %s s each"
                  % (workload, s + 1, runs, first_seed, first_seed + runs - 1, seconds))
            print("  %-16s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
            set_medians = {}
            for name, (bound, _, unit) in bounds.items():
                if len(values[name]) < 2:
                    continue
                med, q1, q3, spread = spread_of(values[name])
                set_medians[name] = med
                flag = spread > bound
                flagged += flag
                print("  %-16s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%%s"
                      % (name, med, q1, q3, 100 * spread, 100 * bound,
                         "  WIDER THAN BOUND" if flag else ""))
            medians.append(set_medians)
        if len(medians) >= 2:
            print("%s, set 2 against set 1 (positive = worse):" % workload)
            for name, (bound, better, _) in bounds.items():
                if name not in medians[0] or name not in medians[1] or not medians[0][name]:
                    continue
                change = (medians[1][name] - medians[0][name]) / medians[0][name]
                worse = change if better == "lower" else -change
                flag = worse > bound
                flagged += flag
                print("  %-16s %+7.2f%% %5.0f%%%s" % (name, 100 * worse, 100 * bound,
                                                    "  WORSE THAN BOUND" if flag else ""))
    print("steadiness: %d flag(s)" % flagged)
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_test")
        return subprocess.run([str(binary)], env=bench_env(), cwd=str(BUILD)).returncode
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    binary = build("perfbench")
    if args.steadiness:
        if args.steadiness < 4:
            parser.error("--steadiness needs at least 4 runs for quartiles")
        workloads = args.workload.split(",")
        return steadiness(binary, workloads, args.steadiness, args.sets, args.seconds,
                          args.first_seed)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
