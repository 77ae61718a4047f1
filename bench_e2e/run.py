#!/usr/bin/env python3
"""Build, generate and run the end-to-end PARDA benchmark.

    python3 bench_e2e/run.py --workload zipf-trz --seed 1 --seconds 15 --trace 0
    python3 bench_e2e/run.py --seed 1            # all workloads, untraced
    python3 bench_e2e/run.py --seed 1 --trace 1  # all workloads, per layer
    python3 bench_e2e/run.py --smoke             # 64K references, short runs

Run from anywhere; paths are relative to the repository root (the parent of
this directory). The build goes to $CARGO_TARGET_DIR/e2e (default
.bench_build/e2e), and the inputs, results and spans under it, or under
--work.

Each workload prints one "<workload> <metric> <value> <unit>" line per
metric, writes a parda.bench.v1 artifact to <build>/results/, and ends with
one JSON line {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end_to_end metrics of BENCHMARK.json, --trace 1 its per_layer metrics.
The exit code is 0 only if every histogram matched its oracle and every
metric was measured.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "e2e")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no PARDA sources in {ROOT}/src", 2)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "bench_e2e")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(binary, work, spec, workload, seed, seconds, trace, smoke):
    data = os.path.join(work, "data", workload)
    results = os.path.join(work, "results")
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    os.makedirs(results, exist_ok=True)
    gen = [binary, "gen", "--workload", workload, "--seed", str(seed),
           "--dir", data] + (["--smoke"] if smoke else [])
    subprocess.run(gen, check=True, timeout=120)

    cmd = [binary, "run", "--workload", workload, "--dir", data,
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", os.path.join(results, f"{workload}.spans.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=seconds + 150)
    sys.stderr.write(proc.stderr)
    shutil.rmtree(data, ignore_errors=True)

    measured, info = {}, {}
    for line in proc.stdout.splitlines():
        fields = line.split(maxsplit=2)
        if len(fields) < 3 or fields[0] != workload:
            continue
        if fields[1].startswith(":"):
            info[fields[1][1:]] = fields[2]
        else:
            value, unit = fields[2].split()
            measured[fields[1]] = (float(value), unit)
    if "correct" not in info:
        fail(f"{workload}: bench_e2e exited {proc.returncode} without a "
             "result")

    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or not math.isfinite(got[0]) or got[1] != m["unit"]:
            fail(f"{workload}: metric {m['name']} missing, not finite or not "
                 f"in {m['unit']}: {got}")
        metrics[m["name"]] = {"value": got[0], "unit": got[1]}
    for name, (value, unit) in measured.items():
        print(f"{workload} {name} {value!r} {unit}")

    attempted, failed = int(info["attempted"]), int(info["failed"])
    result = {"correct": info["correct"] == "1" and proc.returncode == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(f"{workload} error_rate {failed / max(attempted, 1)!r} fraction")

    artifact = {
        "schema": "parda.bench.v1",
        "bench": "e2e",
        "host": {"nproc": int(info["host.nproc"]),
                 "compiler": info["host.compiler"],
                 "build_type": info["host.build_type"],
                 "git_sha": git_sha()},
        "points": [{
            "name": workload,
            "params": {"seed": seed, "trace": trace, "seconds": seconds},
            "metrics": {k: v["value"] for k, v in metrics.items()},
        }],
    }
    kind = "traced" if trace else "untraced"
    with open(os.path.join(results, f"BENCH_e2e_{workload}_{kind}.json"),
              "w") as f:
        json.dump(artifact, f, indent=1)
        f.write("\n")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="64K-reference inputs, short runs, both modes")
    parser.add_argument("--bin", help="a built bench_e2e (skips the build)")
    parser.add_argument("--work", help="directory for inputs and results "
                        "(default: the build directory)")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(f"{spec_path} not found", 2)
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        fail(f"unknown workload {args.workload}; one of {names}", 2)

    bdir = build_dir()
    binary = args.bin or build(bdir)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.smoke else spec["run_seconds"]
    modes = (0, 1) if args.smoke else (args.trace,)

    ok = True
    for workload in workloads:
        for trace in modes:
            result = run_workload(binary, args.work or bdir, spec, workload,
                                  args.seed, seconds, trace, args.smoke)
            ok = ok and result["correct"] and result["failed"] == 0
            print(json.dumps(result), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
