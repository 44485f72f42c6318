#!/usr/bin/env python3
"""Builds and runs the end-to-end query benchmark (bench/e2e).

Run from the root of a checkout. The benchmark is its own CMake project;
it is configured as Release in .bench_build/ and rebuilt when sources
change.

One workload, one run (the interface BENCHMARK.json names):

    python3 bench/e2e/run.py --workload tc_chain_bulk --seed 3 --seconds 20 --trace 0

  The last line of stdout is the JSON result of mpqe_bench_e2e.

Every workload, untraced and then traced (one process each):

    python3 bench/e2e/run.py [--seed N] [--seconds S]

  Prints one `workload metric value unit` line per metric, writes
  bench/e2e/results/<host>/<sha>-<k>.json with the host context, and
  exits non-zero if any query failed or was wrong, or if any metric
  BENCHMARK.json names is missing.

Smoke test (the ctest entry labelled `bench`):

    python3 bench/e2e/run.py --smoke [--binary PATH]

  Every workload, untraced and traced, for one second each, with the
  same checks and no results file.
"""

import argparse
import datetime
import json
import os
import platform
import re
import shutil
import socket
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def log(message):
    print(message, file=sys.stderr, flush=True)


def cache_value(key):
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        return None
    match = re.search(rf"^{key}:\w+=(.*)$", cache.read_text(), re.M)
    return match.group(1) if match else None


def build():
    """Configures (Release only) and builds mpqe_bench_e2e; returns its path."""
    if cache_value("CMAKE_BUILD_TYPE") is None:
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        sys.exit(f"run.py: {BUILD} is configured as {build_type!r}; "
                 "timings need Release (delete the directory to reconfigure)")
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "mpqe_bench_e2e"], stdout=sys.stderr,
                   check=True)
    return BUILD / "mpqe_bench_e2e"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (result, stderr)."""
    trace_dir = Path(binary).parent / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [str(binary), f"--workload={workload}", f"--seed={seed}",
         f"--seconds={seconds}", f"--trace={trace}",
         f"--trace-dir={trace_dir}"],
        capture_output=True, text=True, timeout=seconds * 3 + 120)
    if proc.returncode != 0:
        log(proc.stderr)
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def check(workload, trace, result):
    """Returns a list of problems: failed queries, missing metrics."""
    group = "per_layer" if trace else "end_to_end"
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{workload}: {result['failed']} of "
                        f"{result['attempted']} queries failed or were wrong")
    for metric in SPEC[group]:
        if metric["name"] not in result["metrics"]:
            problems.append(f"{workload}: metric {metric['name']} missing")
    return problems


def host_context(seconds, seed):
    def command_output(args):
        try:
            return subprocess.run(args, capture_output=True, text=True,
                                  cwd=ROOT).stdout.strip()
        except OSError:
            return ""
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        match = re.search(r"^model name\s*:\s*(.*)$", cpuinfo.read_text(),
                          re.M)
        cpu = match.group(1) if match else ""
    compiler = cache_value("CMAKE_CXX_COMPILER") or ""
    version = command_output([compiler, "--version"]) if compiler else ""
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "compiler": version.splitlines()[0] if version else compiler,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "git_sha": command_output(["git", "describe", "--always", "--dirty"])
        or "unknown",
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "loadavg_at_start": list(os.getloadavg()),
        "seconds": seconds,
        "seed": seed,
    }


def run_all(binary, seed, seconds, write_results):
    context = host_context(seconds, seed) if write_results else None
    results = {w: {} for w in WORKLOADS}
    problems = []
    for trace in (0, 1):
        for workload in WORKLOADS:
            log(f"== {workload} trace={trace}")
            result, stderr = run_workload(binary, workload, seed, seconds,
                                          trace)
            log(stderr.rstrip())
            results[workload]["traced" if trace else "untraced"] = result
            problems += check(workload, trace, result)
    for workload in WORKLOADS:
        for key in ("untraced", "traced"):
            result = results[workload][key]
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} "
                      f"{metric['unit']}")
        attempted = sum(results[workload][k]["attempted"]
                        for k in ("untraced", "traced"))
        failed = sum(results[workload][k]["failed"]
                     for k in ("untraced", "traced"))
        print(f"{workload} error_rate {failed / attempted:.6g} ratio")
    if write_results:
        out_dir = HERE / "results" / re.sub(r"[^\w.-]", "_", context["host"])
        out_dir.mkdir(parents=True, exist_ok=True)
        k = 1
        while (out_dir / f"{context['git_sha']}-{k}.json").exists():
            k += 1
        path = out_dir / f"{context['git_sha']}-{k}.json"
        path.write_text(json.dumps({"context": context,
                                    "workloads": results}, indent=1) + "\n")
        log(f"wrote {path.relative_to(ROOT)}")
    for problem in problems:
        log(f"FAIL {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", type=Path,
                        help="use this mpqe_bench_e2e instead of building")
    args = parser.parse_args()

    try:
        binary = args.binary or build()
        if args.smoke:
            return run_all(binary, args.seed, 1, write_results=False)
        if args.workload is None:
            return run_all(binary, args.seed, args.seconds,
                           write_results=True)
        result, stderr = run_workload(binary, args.workload, args.seed,
                                      args.seconds, args.trace)
    except (subprocess.SubprocessError, RuntimeError, OSError) as error:
        log(f"run.py: {error}")
        return 1
    log(stderr.rstrip())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
