#!/usr/bin/env python3
"""Build and run the SkipTrie wall-clock benchmark (see README.md).

    python3 wallbench/run.py --workload uniform_1m --seed 1 --seconds 10 --trace 0
    python3 wallbench/run.py --self-test

Run from the repository root.  The benchmark and the repository's src/ are
compiled into .bench_build/wallbench (or $CARGO_TARGET_DIR/wallbench when
that is set); build output goes to stderr.  The last line of stdout is the
JSON result.  The run fails, printing no result, when the build fails or
when the metric names printed differ from BENCHMARK.json.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "wallbench")
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", out, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("wallbench: build failed")
    return out


def declared_metrics():
    """(end_to_end, per_layer) names from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run(binary, args):
    """Runs the binary, echoing its stdout; returns (exit code, last line)."""
    p = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(p.stdout)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines[-1] if lines else ""


def check_names(last, trace):
    """Exits nonzero unless the result names exactly the declared metrics."""
    result = json.loads(last)
    want = declared_metrics()[1 if trace == "1" else 0]
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        sys.exit("wallbench: metrics %s differ from BENCHMARK.json %s"
                 % (sorted(got), sorted(want)))
    return result


def self_test(binary):
    code, _ = run(binary, ["--self-test"])
    ok = code == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for w in workloads:
        for trace in ("0", "1"):
            code, last = run(binary, ["--workload", w, "--seed", "7",
                                      "--seconds", "1", "--trace", trace,
                                      "--small"])
            result = check_names(last, trace) if code == 0 else None
            passed = result is not None and result["correct"]
            print("%s: %s --trace %s emits every declared metric and passes"
                  % ("PASS" if passed else "FAIL", w, trace))
            ok &= passed
    print("wallbench self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    binary = os.path.join(build(), "wallbench")
    if argv == ["--self-test"]:
        return self_test(binary)
    args = dict(zip(argv[::2], argv[1::2]))
    trace = args.get("--trace", "0")
    if trace == "1" and "--workload" in args:
        traces = os.path.join(os.path.dirname(binary), "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-out",
                 os.path.join(traces, args["--workload"] + ".json")]
    code, last = run(binary, argv)
    if code != 0:
        return code
    check_names(last, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
