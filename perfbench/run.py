#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt: the library, the
sched_server example and the driver) as a Release tree under .bench_build
in the checkout, runs one workload, and prints two lines on stdout: the
run record (host, build, notes) and, last, the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The full record also goes to .bench_build/perfbench-out/. Exits non-zero
without a result when the build fails or the driver finds a wrong output.

    python3 perfbench/run.py --test     # the benchmark's own tests
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench-out")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (Release only) and builds; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the repository sources are missing next to perfbench/")
        return False
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    build_type = cmake_cache_value(cache, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        log(f"refusing a non-Release build tree ({build_type!r}) in {BUILD}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def cmake_cache_value(cache, key):
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"  # not a repository (an enclosing one is not us)
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable"


def source_digest():
    """sha256 over the sources the benchmark builds (stands in for the git
    SHA in checkouts that are not repositories)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "examples", "sched_server.cpp")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def conform(result, specs, missing_is_zero):
    """Holds the driver's metrics against BENCHMARK.json: exactly the listed
    metrics, in its order, with its units. A per-layer metric the workload
    does not exercise reads 0; any other mismatch is a benchmark bug and
    fails the run."""
    metrics = result["metrics"]
    names = [spec["name"] for spec in specs]
    problems = [f"unlisted metric {name}" for name in metrics
                if name not in names]
    out = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        m = metrics.get(name)
        if m is None:
            if not missing_is_zero:
                problems.append(f"metric {name} not reported")
            m = {"value": 0, "unit": unit}
        elif m["unit"] != unit:
            problems.append(f"metric {name} in {m['unit']}, not {unit}")
        out[name] = {"value": m["value"], "unit": unit}
    result["metrics"] = out
    for problem in problems:
        log(problem)
    if problems:
        result["correct"] = False


def run_tests():
    if not build():
        return 1
    return subprocess.call([os.path.join(BUILD, "perfbench_stats_test")])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")

    if not build():
        log("build failed")
        return 1
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PERFBENCH_OUT=OUT)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The driver and the sched_server it starts share a new session, so a
    # timeout stops both.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        log(f"driver exited {proc.returncode} without a result")
        return 1
    record = json.loads(lines[-2])
    result = json.loads(lines[-1])
    if args.trace:
        conform(result, spec["per_layer"], missing_is_zero=True)
    else:
        conform(result, spec["end_to_end"], missing_is_zero=False)
    record.update(nproc=os.cpu_count(), git_sha=git_sha(),
                  source_digest=source_digest(), result=result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)
    del record["result"]
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
