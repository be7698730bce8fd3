#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 apfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (the library sources plus apfbench/cpp) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild incrementally.
Build output goes to stderr. The benchmark's own lines go to stdout, and the
last stdout line is its JSON result. With --trace 1 the span trace written
by the benchmark is parsed and its nesting checked here as one more checked
operation. The exit code is non-zero when the build fails or any check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "apfbench-build")


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--parallel", "4"],
                   check=True, stdout=sys.stderr)


def check_trace(path):
    """Raises ValueError unless every span nests inside its parent and every
    chain of parents ends at the `round` span of the span's own round."""
    with open(path) as f:
        doc = json.load(f)
    spans_seen = 0
    for sim in doc["sims"]:
        by_id = {s["id"]: s for s in sim["spans"]}
        for s in sim["spans"]:
            spans_seen += 1
            if s["end_ns"] < s["start_ns"]:
                raise ValueError(f"span {s['id']} ends before it starts")
            node = s
            while node["parent"] is not None:
                parent = by_id[node["parent"]]
                if (parent["round"] != node["round"]
                        or parent["start_ns"] > node["start_ns"]
                        or parent["end_ns"] < node["end_ns"]):
                    raise ValueError(
                        f"sim {sim['sim']}: span {node['id']} ({node['name']})"
                        f" is not inside its parent {parent['id']}")
                node = parent
            if node["name"] != "round" or node["round"] != s["round"]:
                raise ValueError(f"span {s['id']} has no round ancestor")
    if spans_seen == 0:
        raise ValueError("trace holds no spans")
    return spans_seen


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"apfbench: build failed: {e}", file=sys.stderr)
        return 1

    trace_file = os.path.join(
        bdir, f"trace-{args.workload}-seed{args.seed}.json")
    cmd = [os.path.join(bdir, "apfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"apfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        print(f"apfbench: no result (exit code {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)

    if args.trace:
        result["attempted"] += 1
        try:
            spans = check_trace(trace_file)
            print(f"trace check: {spans} spans in {trace_file} parse and nest"
                  " under their rounds")
        except (OSError, ValueError, KeyError, TypeError) as e:
            print(f"FAILED trace check: {e}")
            result["failed"] += 1
            result["correct"] = False
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
