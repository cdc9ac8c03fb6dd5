#!/usr/bin/env python3
"""Build and run the CryptoDrop replay benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload desktop --seed 1 --seconds 25 --trace 0
      One run: builds the benchmark into .bench_build (first run only),
      then prints human-readable lines and, as the last line, one JSON
      object {"correct", "attempted", "failed", "metrics"}. --trace 0
      reports the end-to-end metrics, --trace 1 the per-layer ones.

  python3 perfbench/run.py --report [--seed N] [--seconds S]
      Every workload at both levels, then one table of every metric by
      name with its unit. Exits nonzero if any run fails its checks.

  python3 perfbench/run.py --self-test
      Builds and runs the benchmark's own unit tests.

--corpus-seed, --campaign-seed and --benign-seed go to the benchmark
binary unchanged; see README.md.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("desktop", "campaign", "daemon")
# What the generic latency metrics measure on each workload.
LATENCY_MEANING = {
    "desktop": {"latency_us.p50": "op_us.p50", "latency_us.p99": "op_us.p99"},
    "campaign": {"latency_us.p50": "op_us.p50", "latency_us.p99": "op_us.p99"},
    "daemon": {"latency_us.p50": "exec_ms.p50 in us",
               "latency_us.p99": "exec_ms.p99 in us"},
}


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build(target):
    """Configures and builds `target`; returns the binary path."""
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    for command in (configure,
                    ["cmake", "--build", BUILD_DIR, "--target", target,
                     "--parallel", "4"]):
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build failed: {' '.join(command)}")
            sys.exit(2)
    return os.path.join(BUILD_DIR, target)


def info_lines(stdout):
    """The derived figures a run prints as `  info <name> <value> <unit>`."""
    rows = []
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] == "info":
            rows.append((fields[1], float(fields[2]), fields[3]))
    return rows


def run_once(binary, workload, seed, seconds, trace, extra, echo=True):
    """Runs the benchmark once; returns (exit code, result, stdout)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--socket", os.path.join(".bench_build", f"perfbench-{os.getpid()}.sock")]
    if trace:
        command += ["--spans-out",
                    os.path.join(".bench_build", f"spans-{workload}.json")]
    proc = subprocess.run(command + extra, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stdout


def report(binary, seed, seconds, extra):
    """Every workload, both levels; one table of every metric."""
    rows = []
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            log(f"{workload} --trace {trace}")
            code, result, stdout = run_once(binary, workload, seed, seconds,
                                            trace, extra, echo=False)
            if code != 0 or result is None or not result["correct"]:
                ok = False
                log(f"{workload} --trace {trace}: checks failed (exit {code})")
            if result is None:
                continue
            rows.append((workload, "failed_frac",
                         result["failed"] / result["attempted"], "ratio"))
            for name, metric in result["metrics"].items():
                rows.append((workload, name, metric["value"], metric["unit"]))
            if trace == 0:
                rows += [(workload, *info) for info in info_lines(stdout)]
    print(f"{'workload':10s} {'metric':32s} {'value':>16s} unit")
    for workload, name, value, unit in rows:
        meaning = LATENCY_MEANING[workload].get(name)
        note = f"  ({meaning})" if meaning else ""
        print(f"{workload:10s} {name:32s} {value:16.6g} {unit}{note}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args, extra = parser.parse_known_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        return subprocess.run([binary], cwd=ROOT).returncode
    binary = build("perfbench")
    if args.report:
        return report(binary, args.seed, args.seconds, extra)
    if args.workload is None:
        parser.error("--workload is required (or --report / --self-test)")
    code, _, _ = run_once(binary, args.workload, args.seed, args.seconds,
                          args.trace, extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
