#!/usr/bin/env python3
"""Repository benchmark: build extnc from source, run one workload, report.

Usage (from the repository root):

  python3 perfbench/run.py --workload file_rlnc --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload file_rlnc --seed 1 --seconds 25 --trace 1
  python3 perfbench/run.py --check          # every workload, small, untimed

--trace 0 times the workload and prints every end-to-end metric of
BENCHMARK.json. --trace 1 runs each workload's traced pass, one process
each, and prints every per-layer metric; where two workloads measure the
same layer metric, the value of the --workload one is kept (else the
sim_gtx280 one).

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. Build output and the workload's own log go to stderr;
stdout ends with one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 only when every operation was correct.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("file_rlnc", "segment_stream", "sim_gtx280", "fleet_serve")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure and build the perfbench binary; return its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "perfbench",
              "-j", jobs]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"perfbench: build step failed: {error}")
            sys.exit(2)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            sys.exit(2)
    return out / "perfbench"


def run_binary(binary, workload, args, extra):
    """Run one workload process; return (stamp, result)."""
    command = [str(binary), workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)] + extra
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(2)
    lines = done.stdout.strip().splitlines()
    try:
        stamp = json.loads(lines[-2].removeprefix("stamp "))
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: {workload} exited {done.returncode} without a "
            f"result")
        sys.exit(2)
    return stamp, result


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def merge_traced(results, selected):
    """One traced result from every workload's.

    A metric measured by two workloads (the simgpu counts) takes the value
    of `selected`, else of sim_gtx280: later workloads below win.
    """
    precedence = ("file_rlnc", "segment_stream", "fleet_serve", "sim_gtx280")
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [w for w in precedence if w != selected] + [selected]:
        result = results[workload]
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(result["metrics"])
    return merged


def keep_declared(result, declared):
    """Keep the declared metrics, in declared order (none if incorrect)."""
    if not result["correct"]:
        return dict(result, metrics={})
    missing = [m["name"] for m in declared
               if m["name"] not in result["metrics"]]
    if missing:
        log(f"perfbench: metrics not produced: {', '.join(missing)}")
        sys.exit(2)
    return dict(result, metrics={m["name"]: result["metrics"][m["name"]]
                                 for m in declared})


def report(result):
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="run every workload small and untimed")
    parser.add_argument("--inject-fault", action="store_true",
                        help="negative control: corrupt one output")
    parser.add_argument("--save", metavar="FILE",
                        help="also write the stamp and result to FILE")
    args = parser.parse_args()
    if not args.check and args.workload is None:
        parser.error("--workload is required unless --check is given")

    binary = build()
    extra = ["--inject-fault"] if args.inject_fault else []

    if args.check:
        selftest = subprocess.run([str(binary), "selftest"], text=True,
                                  stdout=subprocess.PIPE, check=False)
        print(selftest.stdout.strip())
        ok = selftest.returncode == 0
        for workload in WORKLOADS:
            _, result = run_binary(binary, workload, args, extra + ["--quick"])
            ok = ok and result["correct"]
            print(f"{workload}: {result['attempted']} operations, "
                  f"{result['failed']} failed")
        print("quick check: " + ("all correct" if ok else "FAILED"))
        return 0 if ok else 1

    if args.trace:
        stamps, results = {}, {}
        for workload in WORKLOADS:
            trace_file = build_dir() / f"trace-{workload}.json"
            stamps[workload], results[workload] = run_binary(
                binary, workload, args,
                extra + ["--trace", "--trace-out", str(trace_file)])
            log(f"perfbench: {workload} spans written to {trace_file}")
        stamp, result = stamps[args.workload], merge_traced(
            results, args.workload)
    else:
        stamp, result = run_binary(binary, args.workload, args, extra)

    result = keep_declared(result, declared_metrics(args.trace))
    print("stamp " + json.dumps(stamp))
    if args.save:
        Path(args.save).write_text(
            json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n")
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
