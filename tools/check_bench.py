#!/usr/bin/env python3
"""Rejects a BENCH_*.json report that cannot back a performance claim.

    tools/check_bench.py BINARY REPORT [BINARY REPORT ...]

For each pair, REPORT must:
  * parse as a google-benchmark JSON report;
  * carry the Release stamp tools/run_bench.sh injects
    (context.forumcast_build_type) and the host's context.num_cpus;
  * hold a result for every benchmark BINARY registers
    (BINARY --benchmark_list_tests), and no benchmark BINARY lacks.

A truncated file, a report from another build path, or one that lost a
benchmark (a crash mid-run, a hand edit) exits 1 naming the file and what
is wrong. google-benchmark's own "library_build_type" is not checked: it
describes how the benchmark library was built, and distro packages ship it
debug-built even under Release/native repo binaries.
"""

import json
import subprocess
import sys


def registered_names(binary):
    listed = subprocess.run([binary, "--benchmark_list_tests"], check=True,
                            capture_output=True, text=True).stdout
    return {line.strip() for line in listed.splitlines() if line.strip()}


def problems(binary, path):
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as err:
        return [f"does not parse ({err})"]
    found = []
    context = report.get("context", {})
    build = str(context.get("forumcast_build_type", "")).lower()
    if build != "release":
        found.append(f"forumcast_build_type is {build or 'missing'}, "
                     "not release")
    if not context.get("num_cpus"):
        found.append("context.num_cpus is missing")
    ran = {bench.get("name") for bench in report.get("benchmarks", [])
           if bench.get("run_type", "iteration") == "iteration"}
    expected = registered_names(binary)
    missing = sorted(expected - ran)
    unknown = sorted(ran - expected)
    if missing:
        found.append("missing " + ", ".join(missing))
    if unknown:
        found.append("not registered by the binary: " + ", ".join(unknown))
    return found


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    bad = []
    for binary, path in zip(argv[0::2], argv[1::2]):
        bad += [f"{path}: {problem}" for problem in problems(binary, path)]
    if bad:
        sys.exit("refusing bench reports (re-run tools/run_bench.sh on a "
                 "Release/native build):\n  " + "\n  ".join(bad))
    print(f"{len(argv) // 2} bench reports parse, carry Release build "
          "contexts and every registered benchmark")


if __name__ == "__main__":
    main(sys.argv[1:])
