#!/usr/bin/env python3
"""Build and run the noisim whole-stack benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig4_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the benchmark (perfbench/CMakeLists.txt, Release)
into .bench_build/perfbench if needed, then runs one workload; its last
stdout line is the JSON result. Build output goes to stderr. Exits non-zero
without a result when the library sources are missing or the build fails.

--smoke is the benchmark's own test: the correctness checks reject zero
and constant answers, every workload emits every metric named in
BENCHMARK.json with its unit, the same seed generates the same inputs, and
the traced span tree has the same shape across seeds and thread counts.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "backend.hpp")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = configured_source(out)
    if configured != HERE:
        if configured is not None:
            shutil.rmtree(out)  # a build tree copied from another checkout
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def configured_source(out):
    """Source directory an existing build tree was configured for, if any."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.strip().split("=", 1)[1]
    except OSError:
        pass
    return None


def run(binary, args, capture=False):
    return subprocess.run([binary] + args, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def smoke(binary):
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    expect(run(binary, ["--self-test"]).returncode == 0,
           "checks reject zero and constant answers")

    for w in workloads:
        digest = [run(binary, ["--digest", "--workload", w, "--seed", s], True).stdout
                  for s in ("7", "7", "8")]
        expect(digest[0] == digest[1] and digest[0] != digest[2],
               f"{w}: same seed, same inputs; other seed, other inputs")

    shapes = {}
    for w in workloads:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run(binary, ["--workload", w, "--seed", "3", "--seconds", "1",
                                "--trace", trace], True)
            lines = proc.stdout.strip().splitlines()
            ok = proc.returncode == 0 and bool(lines)
            result = json.loads(lines[-1]) if ok else {}
            expect(ok and set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{w} --trace {trace}: result line, correct, nothing failed")
            metrics = result.get("metrics", {})
            for m in spec[key]:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"] and
                       (key == "per_layer" or got.get("value", 0) > 0),
                       f"{w} --trace {trace}: {m['name']} [{m['unit']}]")
            expect(set(metrics) == {m["name"] for m in spec[key]},
                   f"{w} --trace {trace}: no metric outside BENCHMARK.json")
            if trace == "1":
                shapes[w] = span_tree(proc.stdout)

    for w in workloads:
        for extra in (["--seed", "4"], ["--seed", "3", "--threads", "2"]):
            proc = run(binary, ["--workload", w, "--seconds", "1", "--trace", "1"] + extra,
                       True)
            expect(proc.returncode == 0 and span_tree(proc.stdout) == shapes[w],
                   f"{w}: span tree shape unchanged with {' '.join(extra)}")

    print("smoke: " + ("passed" if not failures else f"{len(failures)} FAILED"))
    return 0 if not failures else 1


def span_tree(stdout):
    lines = stdout.splitlines()
    if "span tree:" not in lines:
        return None
    start = lines.index("span tree:") + 1
    return [l for l in lines[start:] if not l.startswith(("record:", "{"))]


def main():
    binary = build()
    if sys.argv[1:] == ["--smoke"]:
        return smoke(binary)
    return run(binary, sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
