#!/usr/bin/env python3
"""Entry point of the serving benchmark (see SERVE.md and BENCHMARK.json).

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds bench_serve from that
checkout's sources (the xcq library plus this directory's package, in
Release) under $CARGO_TARGET_DIR, default `.bench_build`, then runs one
workload for S seconds. With --trace 0 the run is untraced and reports the
end-to-end metrics; with --trace 1 it is the traced replay and reports the
per-layer metrics. bench_serve's table goes to stderr; the last line on
stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status: 0 for a correct run, 1 for an incorrect or failed one, 2 when
the directory is not a checkout that can be built.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run takes well under a minute plus --seconds; one still going after
# this long is hung, and is killed.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    return code


def cache_source(build):
    """The source directory an existing build tree was configured for."""
    try:
        path = os.path.join(build, "CMakeCache.txt")
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build_binary(build):
    """Configures (once) and builds bench_serve; cmake output to stderr."""
    if cache_source(build) not in (None, HERE):
        shutil.rmtree(build)  # configured for another checkout
    if cache_source(build) is None:
        cmd = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build, "--target", "bench_serve",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build, "bench_serve")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    sources = [os.path.join(root, "CMakeLists.txt"),
               os.path.join(root, "src", "xcq", "CMakeLists.txt")]
    if not all(os.path.isfile(path) for path in sources):
        return fail(f"{root} is not a checkout of the repository "
                    "(no CMakeLists.txt and src/xcq to build from)", 2)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload}", 2)
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    out_dir = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    try:
        binary = build_binary(os.path.join(out_dir, "servebench"))
    except (OSError, subprocess.CalledProcessError) as error:
        return fail(f"build failed: {error}", 2)

    scratch = os.path.join(out_dir, "servebench-tmp", str(os.getpid()))
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--scratch={scratch}"]
    if args.trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"bench_serve did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return fail(f"bench_serve exited {proc.returncode} without a result")
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        return fail("result lacks metric(s) " + ", ".join(missing))
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
