#!/usr/bin/env python3
"""forumcast end-to-end benchmark.

Builds the benchmark (perfbench/CMakeLists.txt: the repository's libraries
plus the benchmark binary, Release with -march=native) into .bench_build, then runs one
workload and prints its result as the last line of stdout:

    python3 perfbench/run.py --workload score_hot --seed 1 --seconds 40 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs the same phases with
span collection on and reports the per-layer metrics, writing the spans as a
Chrome trace under .bench_out/. Both lists, with units, are in BENCHMARK.json.

    python3 perfbench/run.py --report [--workload W] [--seed N] [--seconds S]

runs the benchmark's unit tests, then each workload untraced and traced, and
prints every end-to-end and per-layer metric by name and unit, the sent/ok/
failed counts of every phase, and the tracing overhead (traced minus
untraced end-to-end values).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
TESTS = os.path.join(BUILD_DIR, "perfbench_tests")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One run measures --seconds plus set-up; anything near this is a hang.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no forumcast sources next to perfbench/ (src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
                     "-DFORUMCAST_NATIVE=ON"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                       "perfbench", "perfbench_tests"],
                      stdout=sys.stderr, cwd=ROOT).returncode:
        fail("build failed")


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def run_binary(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None, details)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    details = os.path.join(OUT_DIR, f"{tag}.json")
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--details-out", details]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"trace-{tag}.json")]
    if os.path.exists(details):
        os.remove(details)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 124)
    shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
        if set(result) != RESULT_KEYS:
            fail(f"benchmark printed keys {sorted(result)}")
    for line in lines:
        print(line)
    detail = None
    if os.path.exists(details):
        with open(details) as f:
            detail = json.load(f)
    return proc.returncode, result, detail


def listed_metrics(result, wanted):
    """The benchmark measures more than BENCHMARK.json gates; keep the listed
    metrics, in its order, and insist on every one with its unit."""
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"benchmark reported {m['name']} as {got}, "
                 f"BENCHMARK.json wants unit {m['unit']}")
        metrics[m["name"]] = got
    return metrics


def bench(args):
    spec = metric_specs()
    code, result, _ = run_binary(args.workload, args.seed, args.seconds,
                                 args.trace)
    if result is None:
        fail(f"{args.workload}: no result (exit {code})", code or 1)
    result["metrics"] = listed_metrics(
        result, spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(result))
    sys.exit(code)


def report(args):
    spec = metric_specs()
    subprocess.run([TESTS], check=True, stdout=sys.stderr)
    workloads = ([args.workload] if args.workload else
                 [w["name"] for w in spec["workloads"]])
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    for workload in workloads:
        runs = {}
        for trace in (0, 1):
            code, result, detail = run_binary(workload, args.seed,
                                              args.seconds, trace)
            if result is None or detail is None:
                fail(f"{workload} trace {trace}: no result (exit {code})",
                     code or 1)
            runs[trace] = detail
            runs[trace]["result"] = result
        plain, traced = runs[0], runs[1]
        print(f"\n== {workload}: {why[workload]}")
        print(f"   seed {args.seed}, {args.seconds} s, stamp {plain['stamp']}")
        print(f"   correct {plain['result']['correct']} / "
              f"{traced['result']['correct']}, attempted "
              f"{plain['result']['attempted']}, failed "
              f"{plain['result']['failed']}")
        print(f"   {'phase':<10}{'sent':>9}{'ok':>9}{'failed':>8}"
              f"{'p50 ms':>11}{'tail':>8}{'tail ms':>11}{'late p99':>10}")
        for phase in plain["phases"]:
            print(f"   {phase['name']:<10}{phase['sent']:>9}{phase['ok']:>9}"
                  f"{phase['failed']:>8}{phase['p50_ms']:>11.3f}"
                  f"{'p' + format(phase['tail_percentile'], 'g'):>8}"
                  f"{phase['tail_ms']:>11.3f}{phase['late_p99_ms']:>10.3f}")
        gated = {m["name"] for m in spec["end_to_end"]}
        print(f"   {'end-to-end (* = gated)':<28}{'unit':>6}{'untraced':>14}"
              f"{'traced':>14}{'overhead':>14}")
        for name, metric in plain["end_to_end"].items():
            a = metric["value"]
            b = traced["end_to_end"][name]["value"]
            mark = "*" if name in gated else " "
            print(f"  {mark}{name:<28}{metric['unit']:>6}{a:>14.4f}{b:>14.4f}"
                  f"{b - a:>+14.4f}")
        print(f"   {'per-layer (traced)':<28}{'unit':>6}{'value':>14}")
        for name, metric in traced["per_layer"].items():
            print(f"   {name:<28}{metric['unit']:>6}{metric['value']:>14.4f}")
        print("   chrome trace: " + os.path.join(
            OUT_DIR, f"trace-{workload}-seed{args.seed}-trace1.json"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = metric_specs()["run_seconds"] if os.path.exists(
            os.path.join(ROOT, "BENCHMARK.json")) else 20
    if not args.report and not args.workload:
        parser.error("--workload is required")
    build()
    (report if args.report else bench)(args)


if __name__ == "__main__":
    main()
